//! Regenerates Table I: published XMT speedups on irregular workloads.
//!
//! This table is a literature survey in the paper (citations \[8\], \[26\],
//! \[27\], \[28\]); it contains no runnable experiment, so the regenerator
//! prints the pinned citation data for completeness and context.

use xmt_bench::render_table;

pub fn run(_: &crate::Args) {
    let rows = vec![
        vec![
            "Graph Biconnectivity [8]",
            "33X",
            "4X (random graphs only)",
            ">>8",
        ],
        vec!["Graph Triconnectivity [26]", "129X", "serial only", "129"],
        vec!["Max Flow [27]", "108X", "2.5X", "43"],
        vec!["BWT Compression [28]", "25X", "X/2.5 on GPU", "70"],
        vec!["BWT Decompression [28]", "13X", "1.1X", "11"],
    ]
    .into_iter()
    .map(|r| r.into_iter().map(String::from).collect())
    .collect::<Vec<Vec<String>>>();
    println!("Table I — XMT speedups (pinned citation data; no experiment)\n");
    println!(
        "{}",
        render_table(&["Algorithm", "XMT", "GPU/CPU", "Factor"], &rows)
    );
    println!(
        "Note: these results are published measurements from prior work, quoted by the\n\
         paper for motivation; they are reproduced here verbatim, not re-measured."
    );
}
