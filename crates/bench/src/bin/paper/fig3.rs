//! Regenerates Fig. 3: the Roofline of each XMT configuration with the
//! empirical 3D-FFT points — rotation phase (left), non-rotation phase
//! (right) and overall (middle) — in the actual-FLOP convention the
//! paper uses for its Roofline section.
//!
//! Prints the numeric series (for external plotting) and an ASCII
//! rendering per configuration, then checks the paper's three
//! observations (a)/(b)/(c).

use roofline::{render_ascii, Platform, Point, RooflineSeries};
use xmt_bench::render_table;
use xmt_fft::{project, FftProjection};
use xmt_sim::{Bottleneck, XmtConfig};

fn series_for(p: &FftProjection, cfg: &XmtConfig) -> RooflineSeries {
    let platform = Platform::new(cfg.name, cfg.peak_gflops(), cfg.peak_dram_gbs());
    let mut s = RooflineSeries::new(platform);
    let r = p.rotation_point();
    let nr = p.non_rotation_point();
    let o = p.overall_point();
    s.push(Point::new("rotation", r.intensity, r.gflops));
    s.push(Point::new("overall", o.intensity, o.gflops));
    s.push(Point::new("non-rotation", nr.intensity, nr.gflops));
    s
}

pub fn run(_: &crate::Args) {
    let cfgs = XmtConfig::paper_configs();
    let projections: Vec<FftProjection> =
        cfgs.iter().map(|c| project(c, &[512, 512, 512])).collect();

    println!("Fig. 3 — Roofline model of each XMT configuration with empirical 3D-FFT points");
    println!("(actual-FLOP convention, as in the paper's Section VI-B)\n");

    let mut rows = Vec::new();
    for (cfg, p) in cfgs.iter().zip(&projections) {
        let plat = Platform::new(cfg.name, cfg.peak_gflops(), cfg.peak_dram_gbs());
        for (label, pt) in [
            ("rotation", p.rotation_point()),
            ("overall", p.overall_point()),
            ("non-rotation", p.non_rotation_point()),
        ] {
            let attain = plat.attainable(pt.intensity);
            rows.push(vec![
                cfg.name.to_string(),
                label.to_string(),
                format!("{:.3}", pt.intensity),
                format!("{:.0}", pt.gflops),
                format!("{:.0}", attain),
                format!("{:.0}%", 100.0 * pt.gflops / attain),
            ]);
        }
    }
    println!(
        "{}",
        render_table(
            &[
                "config",
                "phase",
                "FLOPs/byte",
                "GFLOPS",
                "roofline",
                "% of roof"
            ],
            &rows
        )
    );

    for (cfg, p) in cfgs.iter().zip(&projections) {
        println!("--- {} ---", cfg.name);
        println!("{}", render_ascii(&[series_for(p, cfg)], 72, 18));
    }

    // Publication-style SVG of all five rooflines with their points.
    let all: Vec<roofline::RooflineSeries> = cfgs
        .iter()
        .zip(&projections)
        .map(|(c, p)| series_for(p, c))
        .collect();
    let svg = roofline::render_svg(&all, 900, 600);
    let svg_path = "fig3.svg";
    match std::fs::write(svg_path, &svg) {
        Ok(()) => println!("wrote {svg_path} ({} bytes)\n", svg.len()),
        Err(e) => println!("could not write {svg_path}: {e}\n"),
    }

    // The paper's observations, checked mechanically.
    println!("Observations:");
    for (cfg, p) in cfgs.iter().zip(&projections).take(2) {
        let all_dram = p.phases.iter().all(|t| t.bound == Bottleneck::Dram);
        println!(
            " (a) {}: every phase DRAM-bound (on the slope): {}",
            cfg.name,
            if all_dram { "yes" } else { "NO" }
        );
    }
    for (cfg, p) in cfgs.iter().zip(&projections).skip(2) {
        let rot = p
            .phases
            .iter()
            .find(|t| t.name.contains("rotation"))
            .expect("rotation phase exists");
        println!(
            " (b) {}: rotation {} (ICN demand {:.2}x its DRAM demand)",
            cfg.name,
            match rot.bound {
                Bottleneck::Icn => "falls below the slope — ICN-bound",
                _ => "on the slope",
            },
            rot.icn_cycles / rot.dram_cycles
        );
    }
    let x2 = &projections[3];
    let x4 = &projections[4];
    println!(
        " (c) 128k x4 improves over 128k x2 by only {:.0}% (paper: 51%) — the ICN binds,\n\
         so quadrupling DRAM bandwidth beyond x2 helps little.",
        100.0 * (x4.gflops_convention / x2.gflops_convention - 1.0)
    );
}
