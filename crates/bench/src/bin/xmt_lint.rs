//! The static-analysis gate over every kernel in the workspace: prints
//! what [`xmt_bench::lint::check`] finds on each of
//! [`xmt_bench::lint::targets`] (front half, translation validation,
//! static traffic with the pinned roofline verdicts, and the measured
//! cross-check of every golden and paper-scale case).
//!
//! ```text
//! cargo run --release -p xmt-bench --bin xmt_lint
//! ```
//!
//! It takes no arguments and writes no file. Exit codes: **0** every
//! target passed, **1** any finding, **2** any argument.

use std::process::exit;

use xmt_bench::lint::{check, targets, Outcome};

fn print_row(o: &Outcome) {
    let status = if o.passed() { "ok" } else { "FAIL" };
    let tv = o
        .transval
        .map_or("-".to_string(), |t| format!("{}b/{}u", t.blocks, t.uops));
    let roof = o.verdict.map_or("-".to_string(), |v| v.to_string());
    println!(
        "{status:>4}  {:<20} {:<8} transval {tv:>10}  roofline {roof:<16} xcheck {}",
        o.name, o.kind, o.crosscheck
    );
    if let Some(tv) = o.cache_audit {
        println!(
            "      replayed trace cache audited: {} block(s), {} uop(s), {} cold",
            tv.blocks, tv.uops, tv.cold_blocks
        );
    }
    if o.unproven > 0 {
        println!(
            "      {} race(s) unproven (⊤ addresses; reported, not gating for XMTC)",
            o.unproven
        );
    }
    for f in &o.findings {
        println!("      {f}");
    }
}

fn main() {
    if std::env::args().len() > 1 {
        eprintln!("usage: xmt_lint (it takes no arguments)");
        exit(2);
    }

    println!("xmt-lint: structure / def-use / races / transval / traffic\n");
    let results: Vec<Outcome> = targets()
        .iter()
        .map(|t| {
            let o = check(t);
            print_row(&o);
            o
        })
        .collect();

    println!("\npinned roofline verdicts:");
    for o in &results {
        if let Some(want) = o.expect {
            println!(
                "  {:<20} want {:<16} got {}",
                o.name,
                want.to_string(),
                o.verdict.map_or("-".to_string(), |v| v.to_string())
            );
        }
    }

    if results.iter().all(Outcome::passed) {
        println!(
            "\nall targets proven: lowerings equivalent, traffic within static bounds, \
             paper-scale FFT bandwidth-bound"
        );
    } else {
        eprintln!("\nxmt-lint: at least one target failed verification");
        exit(1);
    }
}
