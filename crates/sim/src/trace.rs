//! Exporters for probe data: Chrome `trace_event` JSON and a compact
//! per-phase roofline/stall summary.
//!
//! [`chrome_trace`] turns an [`IntervalProbe`](crate::IntervalProbe)
//! row stream plus the [`RunReport`] spawn log into a JSON document
//! loadable by `chrome://tracing` (or Perfetto): counter tracks for
//! issue rate, stall causes, NoC occupancy and per-DRAM-channel busy
//! cycles, plus one duration event per parallel section.
//!
//! [`phase_table`] renders the per-spawn statistics as a stall
//! attribution table against the configuration's roofline — the
//! Section VI-B analysis (bandwidth-bound phases sit left of the
//! ridge; their dominant stall should be the LSU/NoC/DRAM path).

use crate::config::XmtConfig;
use crate::machine::RunReport;
use crate::probe::IntervalRow;
use roofline::Platform;
use std::fmt::Write as _;

/// Microseconds per cycle at the clock (trace_event timestamps are in
/// microseconds).
const US_PER_CYCLE: f64 = 1.0 / (XmtConfig::CLOCK_GHZ * 1000.0);

fn counter(out: &mut String, name: &str, ts: f64, args: &[(&str, u64)]) {
    let _ = write!(
        out,
        r#"{{"name":"{name}","ph":"C","pid":1,"tid":0,"ts":{ts:.4},"args":{{"#
    );
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, r#""{k}":{v}"#);
    }
    out.push_str("}},\n");
}

/// Render probe rows and the spawn log as Chrome `trace_event` JSON.
///
/// Counter tracks (one `ph:"C"` event per retained sample):
/// `issue` (instructions/flops per interval), `stalls` (per-cause
/// cycles per interval), `noc` (in-flight flits, injection
/// rejections), `dram busy` (per-channel busy cycles per interval),
/// `queues` (module queue depth, transactions in flight). Each spawn
/// becomes a `ph:"X"` duration event on its own track. Timestamps are
/// microseconds of simulated time at the configuration's clock.
pub fn chrome_trace(rows: &[IntervalRow], report: &RunReport, cfg: &XmtConfig) -> String {
    let mut out = String::with_capacity(rows.len() * 256 + 4096);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = writeln!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"xmt-sim {}\"}}}},",
        cfg.name
    );
    for r in rows {
        let ts = r.boundary as f64 * US_PER_CYCLE;
        counter(
            &mut out,
            "issue",
            ts,
            &[("instructions", r.instructions), ("flops", r.flops)],
        );
        counter(
            &mut out,
            "stalls",
            ts,
            &[
                ("scoreboard", r.stall_scoreboard),
                ("fpu", r.stall_fpu),
                ("mdu", r.stall_mdu),
                ("lsu", r.stall_lsu),
            ],
        );
        counter(
            &mut out,
            "noc",
            ts,
            &[
                ("in_flight", r.noc_in_flight),
                ("rejections", r.noc_rejections),
            ],
        );
        let _ = write!(
            out,
            r#"{{"name":"dram busy","ph":"C","pid":1,"tid":0,"ts":{ts:.4},"args":{{"#
        );
        for (k, busy) in r.channel_busy.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let _ = write!(out, r#""ch{k}":{busy}"#);
        }
        out.push_str("}},\n");
        counter(
            &mut out,
            "queues",
            ts,
            &[
                ("module_queue", r.module_queue),
                ("txns_in_flight", r.txns_in_flight),
            ],
        );
        // Fault events only appear when fault injection is active, so
        // healthy traces don't carry four all-zero counter tracks.
        if r.ecc_corrected | r.ecc_detected | r.noc_corrupted | r.noc_retried != 0 {
            counter(
                &mut out,
                "faults",
                ts,
                &[
                    ("ecc_corrected", r.ecc_corrected),
                    ("ecc_detected", r.ecc_detected),
                    ("noc_corrupted", r.noc_corrupted),
                    ("noc_retried", r.noc_retried),
                ],
            );
        }
    }
    for s in &report.spawns {
        let _ = writeln!(
            out,
            "{{\"name\":\"spawn {} ({} thr)\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.4},\"dur\":{:.4},\"args\":{{\"threads\":{},\"cycles\":{},\
             \"flops\":{},\"dram_bytes\":{}}}}},",
            s.index,
            s.threads,
            s.start_cycle as f64 * US_PER_CYCLE,
            s.cycles as f64 * US_PER_CYCLE,
            s.threads,
            s.cycles,
            s.flops,
            s.dram_bytes
        );
    }
    // Closing metadata event avoids a trailing comma without
    // look-behind bookkeeping.
    let _ = write!(
        out,
        "{{\"name\":\"cycles\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"total\":{}}}}}\n]}}\n",
        report.stats.cycles
    );
    out
}

/// Name of the largest stall bucket of a phase, with its share of all
/// stall cycles (`None` when the phase never stalled).
fn dominant_stall(sc: u64, fpu: u64, mdu: u64, lsu: u64) -> Option<(&'static str, f64)> {
    let total = sc + fpu + mdu + lsu;
    if total == 0 {
        return None;
    }
    let (name, max) = [
        ("scoreboard", sc),
        ("fpu", fpu),
        ("mdu", mdu),
        ("lsu/mem", lsu),
    ]
    .into_iter()
    .max_by_key(|&(_, v)| v)?;
    Some((name, max as f64 / total as f64))
}

/// Per-phase stall-attribution table against the configuration's
/// roofline.
///
/// One row per parallel section: thread count, wall cycles, achieved
/// GFLOPS, operational intensity, percent of the roofline-attainable
/// rate, whether the phase sits on the bandwidth slope or under the
/// compute ceiling, and the dominant stall cause with its share of
/// all stall cycles.
pub fn phase_table(report: &RunReport, cfg: &XmtConfig) -> String {
    let plat = Platform::new(cfg.name, cfg.peak_gflops(), cfg.peak_dram_gbs());
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{}: peak {:.1} GFLOPS, {:.1} GB/s, ridge {:.2} FLOP/B",
        plat.name,
        plat.peak_gflops,
        plat.peak_gbs,
        plat.ridge()
    );
    let _ = writeln!(
        out,
        "{:>5} {:>8} {:>10} {:>9} {:>8} {:>6} {:>9}  dominant stall",
        "spawn", "threads", "cycles", "GFLOPS", "FLOP/B", "%roof", "bound"
    );
    for s in &report.spawns {
        let gf = s.gflops();
        let oi = s.intensity();
        let attain = plat.attainable(oi);
        let pct = if attain > 0.0 {
            100.0 * gf / attain
        } else {
            0.0
        };
        let bound = if plat.bandwidth_bound(oi) {
            "bw"
        } else {
            "compute"
        };
        let stall = match dominant_stall(s.stall_scoreboard, s.stall_fpu, s.stall_mdu, s.stall_lsu)
        {
            Some((name, share)) => format!("{name} ({:.0}%)", 100.0 * share),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:>5} {:>8} {:>10} {:>9.2} {:>8.3} {:>6.1} {:>9}  {}",
            s.index, s.threads, s.cycles, gf, oi, pct, bound, stall
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineStats, SpawnStats, UtilizationReport};
    use crate::probe::BlockedTcus;

    fn report() -> RunReport {
        RunReport {
            stats: MachineStats {
                cycles: 2000,
                ..Default::default()
            },
            spawns: vec![SpawnStats {
                index: 0,
                threads: 64,
                start_cycle: 100,
                cycles: 900,
                instructions: 5000,
                flops: 1200,
                mem_reads: 800,
                mem_writes: 400,
                dram_bytes: 4800,
                stall_scoreboard: 10,
                stall_fpu: 5,
                stall_mdu: 0,
                stall_lsu: 300,
            }],
            utilization: UtilizationReport::default(),
        }
    }

    fn row() -> IntervalRow {
        IntervalRow {
            boundary: 256,
            cycle: 256,
            spawn: Some(0),
            instructions: 100,
            flops: 40,
            mem_reads: 20,
            mem_writes: 10,
            threads: 8,
            stall_scoreboard: 3,
            stall_fpu: 1,
            stall_mdu: 0,
            stall_lsu: 12,
            dram_bytes: 512,
            noc_injected: 30,
            noc_delivered: 28,
            noc_rejections: 2,
            noc_in_flight: 4,
            txns_in_flight: 6,
            blocked: BlockedTcus::default(),
            module_queue: 3,
            ecc_corrected: 0,
            ecc_detected: 0,
            noc_corrupted: 0,
            noc_retried: 0,
            channel_busy: vec![17, 9],
            channel_queue: vec![1, 0],
        }
    }

    #[test]
    fn chrome_trace_is_structurally_sound() {
        let t = chrome_trace(&[row()], &report(), &XmtConfig::xmt_4k().scaled_to(8));
        assert!(t.starts_with('{') && t.trim_end().ends_with('}'));
        // Balanced braces and brackets (no strings in the output
        // contain either character).
        let depth = |open: char, close: char| {
            t.chars().filter(|&c| c == open).count() as i64
                - t.chars().filter(|&c| c == close).count() as i64
        };
        assert_eq!(depth('{', '}'), 0);
        assert_eq!(depth('[', ']'), 0);
        assert!(t.contains(r#""name":"dram busy""#));
        assert!(t.contains(r#""ch1":9"#));
        assert!(t.contains(r#""name":"spawn 0 (64 thr)""#));
        assert!(t.contains(r#""ph":"X""#));
        // No trailing comma before the closing bracket.
        assert!(!t.contains(",\n]"));
        // Healthy rows emit no fault track.
        assert!(!t.contains(r#""name":"faults""#));
    }

    #[test]
    fn fault_counters_get_their_own_track() {
        let mut r = row();
        r.ecc_corrected = 3;
        r.noc_retried = 2;
        let t = chrome_trace(&[r], &report(), &XmtConfig::xmt_4k().scaled_to(8));
        assert!(t.contains(r#""name":"faults""#));
        assert!(t.contains(r#""ecc_corrected":3"#));
        assert!(t.contains(r#""noc_retried":2"#));
    }

    #[test]
    fn phase_table_attributes_memory_stalls() {
        let table = phase_table(&report(), &XmtConfig::xmt_4k().scaled_to(8));
        assert!(table.contains("ridge"));
        assert!(table.contains("lsu/mem (95%)"));
        assert!(table.contains("bw") || table.contains("compute"));
    }

    #[test]
    fn dominant_stall_edge_cases() {
        assert_eq!(dominant_stall(0, 0, 0, 0), None);
        let (n, s) = dominant_stall(1, 1, 1, 1).unwrap();
        assert_eq!(s, 0.25);
        assert!(["scoreboard", "fpu", "mdu", "lsu/mem"].contains(&n));
    }
}
