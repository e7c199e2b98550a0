//! Ease of programming (Sections III-C / IV-B of the paper): write a
//! data-parallel kernel in XMTC — "a modest extension of C" — compile
//! it with this workspace's miniature XMTC compiler, and run it on the
//! cycle-level XMT simulator.
//!
//! The kernel is the paper's favourite illustration: load-balanced
//! irregular work distribution using the prefix-sum primitive, plus a
//! dynamically-extended section via `sspawn`.
//!
//! ```sh
//! cargo run --release --example xmtc_kernel
//! ```

use xmt_sim::{SimConfig, XmtConfig};

const SRC: &str = r#"
// Compact non-zero elements of mem[0..n) into mem[1000..], in parallel.
// g0 = n, g1 = output cursor (prefix-sum target), g2 = output base.
g0 = 256;
g1 = 0;
g2 = 1000;
spawn (256) {
    int v = mem[$];
    if (v != 0) {
        int slot = ps(g1, 1);      // constant-time ticket from the PS unit
        mem[g2 + slot] = v;
    }
}
// Second phase: square every compacted value, one thread each, sized
// by the count the first phase produced.
g3 = g1;
spawn (1) {
    int n = g3;
    if ($ == 0) { sspawn(n - 1); } // grow the section to n threads
    int x = mem[g2 + $];
    mem[g2 + 512 + $] = x * x;
}
"#;

fn main() {
    println!("XMTC source:\n{SRC}");
    let prog = xmtc::compile(SRC).expect("compiles");
    println!("compiled to {} XMT instructions\n", prog.len());

    let cfg = XmtConfig::xmt_4k().scaled_to(4);
    let mut m = SimConfig::new(&cfg).builder(prog).mem_words(4096).build();
    // Input: every third slot holds a value, the rest are zero.
    let mut expected = Vec::new();
    for i in 0..256u32 {
        if i % 3 == 0 {
            m.mem[i as usize] = i + 1;
            expected.push(i + 1);
        }
    }
    let summary = m.run().expect("runs");

    let count = m.gregs_snapshot()[1] as usize;
    println!(
        "compacted {count} non-zeros (expected {}), {} threads over {} spawns, {} cycles",
        expected.len(),
        summary.stats.threads,
        summary.stats.spawns,
        summary.stats.cycles
    );
    assert_eq!(count, expected.len());

    // The compacted values are a permutation of the expected set …
    let mut got: Vec<u32> = m.mem[1000..1000 + count].to_vec();
    got.sort_unstable();
    assert_eq!(got, expected);
    // … and phase two squared each one.
    for i in 0..count {
        let v = m.mem[1000 + i];
        assert_eq!(m.mem[1512 + i], v.wrapping_mul(v));
    }
    println!("ok: parallel compaction + dynamic second phase verified");
}
