//! The paper's ease-of-programming claim, demonstrated end to end
//! (Section IV-B: the tuned FFT "required only a modest effort beyond
//! that required for a serial implementation"): a complete radix-2
//! decimation-in-frequency Stockham FFT written in ~40 lines of XMTC,
//! compiled with the miniature XMTC compiler, executed on the XMT
//! engines, and validated against the host FFT library.
//!
//! Layout (word addresses): A = 0, B = 2n, twiddle table (re,im pairs,
//! ω_n^{-k}) at 4n. Globals: g0 = n, g1 = n/2, g2 = s (stride),
//! g3 = A base, g4 = B base, g5 = twiddle base, g6 = n−1.

use parafft::{Complex32, FftDirection, TwiddleTable};
use xmt_isa::Interp;
use xmt_sim::{SimConfig, XmtConfig};

use xmtc::samples::FFT_RADIX2 as FFT_XMTC;

fn setup(n: usize) -> (xmt_isa::Program, Vec<f32>, Vec<Complex32>) {
    let prog = xmtc::compile(FFT_XMTC).expect("XMTC FFT compiles");
    let input: Vec<Complex32> = (0..n)
        .map(|i| Complex32::new((i as f32 * 0.23).sin(), (i as f32 * 0.71).cos() * 0.5))
        .collect();
    let tw = TwiddleTable::<f32>::new(n, FftDirection::Forward);
    let mut tw_flat = Vec::with_capacity(2 * n);
    for k in 0..n {
        let w = tw.get(k);
        tw_flat.push(w.re);
        tw_flat.push(w.im);
    }
    (prog, tw_flat, input)
}

fn set_globals(gregs: &mut [u32], n: usize) {
    gregs[0] = n as u32;
    gregs[1] = (n / 2) as u32;
    gregs[3] = 0; // A
    gregs[4] = (2 * n) as u32; // B
    gregs[5] = (4 * n) as u32; // twiddles
    gregs[6] = (n - 1) as u32;
}

fn check(output: &[Complex32], input: &[Complex32]) {
    let mut want = input.to_vec();
    parafft::Fft::<f32>::new(input.len(), FftDirection::Forward).process(&mut want);
    let rms = (want.iter().map(|c| c.norm_sqr() as f64).sum::<f64>() / want.len() as f64).sqrt();
    for (k, (g, w)) in output.iter().zip(&want).enumerate() {
        let err = (*g - *w).abs() as f64 / rms;
        assert!(err < 1e-4, "bin {k}: {g:?} vs {w:?}");
    }
}

#[test]
fn xmtc_fft_matches_host_library_on_interpreter() {
    for n in [8usize, 64, 256, 1024] {
        let (prog, tw_flat, input) = setup(n);
        let mut m = Interp::new(4 * n + 2 * n + 16);
        set_globals(&mut m.gregs, n);
        let flat: Vec<f32> = input.iter().flat_map(|c| [c.re, c.im]).collect();
        m.write_f32s(0, &flat);
        m.write_f32s(4 * n, &tw_flat);
        m.run(&prog).unwrap();
        let base = m.gregs[7] as usize;
        let out: Vec<Complex32> = m
            .read_f32s(base, 2 * n)
            .chunks(2)
            .map(|p| Complex32::new(p[0], p[1]))
            .collect();
        check(&out, &input);
    }
}

#[test]
fn xmtc_fft_runs_on_the_cycle_simulator() {
    let n = 256usize;
    let (prog, tw_flat, input) = setup(n);
    let cfg = XmtConfig::xmt_4k().scaled_to(4);
    let m = SimConfig::new(&cfg)
        .builder(prog)
        .mem_words(4 * n + 2 * n + 16)
        .build();
    {
        let g = m.gregs_snapshot();
        let _ = g; // globals are set through serial code normally; the
                   // test uses the direct API below.
    }
    // The Machine has no public greg setter; drive the same values via
    // a prologue program instead: simplest is memory-mapped setup, so
    // here we reuse the interpreter-validated program but set globals
    // through a tiny XMTC prologue.
    let prologue = format!(
        "g0 = {n}; g1 = {h}; g3 = 0; g4 = {b}; g5 = {t}; g6 = {m};",
        h = n / 2,
        b = 2 * n,
        t = 4 * n,
        m = n - 1
    );
    let full_src = format!("{prologue}\n{FFT_XMTC}");
    let prog = xmtc::compile(&full_src).unwrap();
    let flat: Vec<f32> = input.iter().flat_map(|c| [c.re, c.im]).collect();
    let mut m = SimConfig::new(&cfg)
        .builder(prog)
        .mem_words(4 * n + 2 * n + 16)
        .write_f32s(0, &flat)
        .write_f32s(4 * n, &tw_flat)
        .build();
    let summary = m.run().unwrap();
    let base = m.gregs_snapshot()[7] as usize;
    let out: Vec<Complex32> = m
        .read_f32s(base, 2 * n)
        .chunks(2)
        .map(|p| Complex32::new(p[0], p[1]))
        .collect();
    check(&out, &input);
    // log2(256) = 8 stages, each one spawn of n/2 threads.
    assert_eq!(summary.spawns.len(), 8);
    assert!(summary.spawns.iter().all(|s| s.threads == (n / 2) as u64));
}
