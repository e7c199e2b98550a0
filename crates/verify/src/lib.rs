//! # xmt-verify — static analysis for XMT kernel programs
//!
//! Checks a built [`Program`] (or a decoded binary) **without running
//! it**, in three passes:
//!
//! 1. **Structure** ([`Kind::Structure`]) — control-flow sanity: every
//!    branch/jump/spawn target in range, no `spawn` nested inside a
//!    parallel section, `join`/`halt`/`write_gr`/`sspawn` only in
//!    their legal mode, every parallel section able to reach `join`,
//!    plus warnings for unreachable code and a missing `halt`.
//! 2. **Def-before-use** ([`Kind::UninitRead`]) — a must-initialize
//!    dataflow proving every register read is preceded by a write on
//!    all paths from its region entry (serial code and each parallel
//!    section separately; TCU register files are not cleared between
//!    virtual threads, so this catches real nondeterminism).
//! 3. **Data races** ([`Kind::Race`]) — each load/store address in a
//!    parallel section is abstracted as a function of the thread id in
//!    the [`affine`] domain and every write-write / read-write pair is
//!    proven disjoint across distinct tids, exactly (enumeration for
//!    small known thread counts) or algebraically (stride congruence,
//!    injectivity, numeric ranges). `ps`-derived addresses are the
//!    sanctioned communication channel and are exempt.
//!
//! The race pass is *sound for the tracked fragment*: a clean report
//! means no two distinct threads of the same spawn touch the same word
//! (outside `ps`) **provided** every address the program computes was
//! representable; addresses that widen to ⊤ are conservatively
//! reported as potential races, never silently admitted. The dynamic
//! `RaceCheck` probe in `xmt-sim` is the complementary oracle: it
//! observes one concrete execution and confirms (or refutes) the
//! static verdict on that run.
//!
//! ```
//! use xmt_isa::{ir, ProgramBuilder};
//! use xmt_verify::{verify, Kind};
//!
//! // Each thread stores to its own word: verifies clean.
//! let mut b = ProgramBuilder::new();
//! let par = b.label();
//! let done = b.label();
//! b.li(ir(1), 64);
//! b.spawn(ir(1), par);
//! b.jump(done);
//! b.bind(par);
//! b.tid(ir(2));
//! b.addi(ir(3), ir(2), 256); // word 256 + tid: private per thread
//! b.sw(ir(2), ir(3), 0);
//! b.join();
//! b.bind(done);
//! b.halt();
//! assert!(verify(&b.build().unwrap()).is_clean());
//!
//! // Every thread stores to the same word: a definite race.
//! let mut b = ProgramBuilder::new();
//! let par = b.label();
//! let done = b.label();
//! b.li(ir(1), 64);
//! b.spawn(ir(1), par);
//! b.jump(done);
//! b.bind(par);
//! b.li(ir(3), 256);
//! b.sw(ir(3), ir(3), 0); // all 64 threads write word 256
//! b.join();
//! b.bind(done);
//! b.halt();
//! let report = verify(&b.build().unwrap());
//! assert!(!report.is_clean());
//! assert!(report.errors().any(|d| d.kind == Kind::Race));
//! ```

#![warn(missing_docs)]

pub mod affine;
mod cfg;
mod dataflow;
mod races;
pub mod traffic;
pub mod transval;

pub use cfg::{successors, Cfg, SpawnSite};
pub use races::ENUM_CAP;
pub use transval::{TransvalError, TransvalReason, TransvalStats};

use std::collections::BTreeSet;
use std::fmt;
use xmt_isa::{DecodedProgram, Instr, Program};

/// How serious a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory: the program runs, but something looks unintended.
    Warning,
    /// The program is wrong (or cannot be proven right): illegal
    /// structure, a read of an uninitialized register, or a (potential)
    /// data race.
    Error,
}

/// What a finding is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Control-flow / mode-legality violation.
    Structure,
    /// A register read that is not preceded by a write on every path.
    UninitRead,
    /// Two threads of one spawn may touch the same word.
    Race,
    /// Code no mode can reach.
    Unreachable,
    /// No `halt` reachable from serial entry.
    MissingHalt,
    /// A register write no path ever observes.
    DeadStore,
    /// The canonical micro-op lowering is not equivalent to the
    /// reference ISA semantics (translation validation, [`transval`]).
    Transval,
    /// A static traffic prediction could not be established (or a
    /// cross-check against measurement failed), [`traffic`].
    Traffic,
}

impl fmt::Display for Kind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Kind::Structure => "structure",
            Kind::UninitRead => "uninit-read",
            Kind::Race => "race",
            Kind::Unreachable => "unreachable",
            Kind::MissingHalt => "missing-halt",
            Kind::DeadStore => "dead-store",
            Kind::Transval => "transval",
            Kind::Traffic => "traffic",
        })
    }
}

/// One finding, anchored at a program counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diag {
    /// Error or warning.
    pub severity: Severity,
    /// Category of the finding.
    pub kind: Kind,
    /// Instruction index the finding is anchored at.
    pub pc: usize,
    /// Human-readable explanation, with a witness where one exists.
    pub message: String,
}

impl Diag {
    pub(crate) fn error(kind: Kind, pc: usize, message: String) -> Self {
        Diag {
            severity: Severity::Error,
            kind,
            pc,
            message,
        }
    }

    pub(crate) fn warning(kind: Kind, pc: usize, message: String) -> Self {
        Diag {
            severity: Severity::Warning,
            kind,
            pc,
            message,
        }
    }
}

impl fmt::Display for Diag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(f, "{sev}[{}] pc {}: {}", self.kind, self.pc, self.message)
    }
}

/// The result of verifying one program: every finding, in pass order
/// (structure, then def-use, then races), pc-sorted within a pass.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All findings.
    pub diags: Vec<Diag>,
}

impl Report {
    /// True when no *errors* were found (warnings are allowed).
    pub fn is_clean(&self) -> bool {
        !self.diags.iter().any(|d| d.severity == Severity::Error)
    }

    /// The error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &Diag> {
        self.diags.iter().filter(|d| d.severity == Severity::Error)
    }

    /// The warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &Diag> {
        self.diags
            .iter()
            .filter(|d| d.severity == Severity::Warning)
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diags.is_empty() {
            return writeln!(f, "clean: no findings");
        }
        for d in &self.diags {
            writeln!(f, "{d}")?;
        }
        let errs = self.errors().count();
        let warns = self.warnings().count();
        writeln!(f, "{errs} error(s), {warns} warning(s)")
    }
}

/// Verify a raw instruction stream (the common substrate of
/// [`verify`] and [`verify_decoded`]).
pub fn verify_instrs(instrs: &[Instr]) -> Report {
    let mut diags = Vec::new();
    let cfg = Cfg::build(instrs, &mut diags);
    // Deeper passes assume a structurally-valid CFG (targets in range,
    // modes disjoint); on a broken one they would only cascade noise.
    if diags.iter().all(|d| d.severity != Severity::Error) {
        let serial_pcs: Vec<usize> = (0..instrs.len()).filter(|&pc| cfg.serial[pc]).collect();
        dataflow::check_region(instrs, &serial_pcs, 0, false, &mut diags);
        dataflow::check_dead_stores(instrs, &serial_pcs, 0, false, &mut diags);
        let mut seen = BTreeSet::new();
        for site in &cfg.spawns {
            if seen.insert(site.entry) {
                let region = cfg.region(instrs, site.entry);
                dataflow::check_region(instrs, &region, site.entry, true, &mut diags);
                dataflow::check_dead_stores(instrs, &region, site.entry, true, &mut diags);
            }
        }
        races::check_races(instrs, &cfg, &mut diags);
    }
    Report { diags }
}

/// Verify a built [`Program`].
pub fn verify(prog: &Program) -> Report {
    verify_instrs(prog.instrs())
}

/// Verify a decoded binary ([`DecodedProgram`]) — the same checks, so
/// a program round-tripped through the codec verifies identically.
pub fn verify_decoded(prog: &DecodedProgram) -> Report {
    let instrs: Vec<Instr> = prog.instrs().iter().map(|d| d.instr).collect();
    verify_instrs(&instrs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmt_isa::{fr, gr, ir, ProgramBuilder};

    /// serial prologue + spawn + parallel body + halt, with the body
    /// provided by the closure. The count register is r1.
    fn with_spawn(count: u32, body: impl FnOnce(&mut ProgramBuilder)) -> Program {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        b.li(ir(1), count);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        body(&mut b);
        b.join();
        b.bind(done);
        b.halt();
        b.build().unwrap()
    }

    #[test]
    fn private_slots_verify_clean() {
        let p = with_spawn(200, |b| {
            b.tid(ir(2));
            b.slli(ir(3), ir(2), 3);
            b.addi(ir(3), ir(3), 4096);
            b.sw(ir(2), ir(3), 0);
            b.sw(ir(2), ir(3), 7);
            b.lw(ir(4), ir(3), 3);
        });
        let r = verify(&p);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn dead_store_is_a_warning_with_location() {
        let p = with_spawn(8, |b| {
            b.tid(ir(2));
            b.slli(ir(3), ir(2), 1);
            b.addi(ir(3), ir(3), 4096);
            b.li(ir(4), 7); // overwritten before any read
            b.li(ir(4), 9);
            b.sw(ir(4), ir(3), 0);
        });
        let r = verify(&p);
        assert!(r.is_clean(), "dead stores must stay warnings: {r}");
        let w = r
            .warnings()
            .find(|d| d.kind == Kind::DeadStore)
            .expect("dead store expected");
        assert_eq!(w.pc, 6, "{w}");
        assert!(w.message.contains("writes r4"), "{}", w.message);
    }

    #[test]
    fn value_read_on_one_path_is_not_dead() {
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        let skip = b.label();
        b.li(ir(1), 8);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.tid(ir(2));
        b.li(ir(3), 4096); // read only on the fallthrough path
        b.beq(ir(2), ir(0), skip);
        b.sw(ir(2), ir(3), 0);
        b.bind(skip);
        b.join();
        b.bind(done);
        b.halt();
        let p = b.build().unwrap();
        let r = verify(&p);
        assert!(
            r.warnings().all(|d| d.kind != Kind::DeadStore),
            "a value read on some path is live: {r}"
        );
    }

    #[test]
    fn ps_result_is_never_a_dead_store() {
        // The `ps` write is incidental to the global prefix-sum side
        // effect; an unread ticket must not warn.
        let p = with_spawn(8, |b| {
            b.tid(ir(2));
            b.li(ir(3), 1);
            b.ps(ir(4), ir(3), gr(0));
            b.slli(ir(5), ir(2), 1);
            b.addi(ir(5), ir(5), 4096);
            b.sw(ir(2), ir(5), 0);
        });
        let r = verify(&p);
        assert!(r.warnings().all(|d| d.kind != Kind::DeadStore), "{r}");
    }

    #[test]
    fn shared_word_write_is_a_definite_race_with_witness() {
        let p = with_spawn(8, |b| {
            b.li(ir(3), 64);
            b.sw(ir(3), ir(3), 0);
        });
        let r = verify(&p);
        let race = r
            .errors()
            .find(|d| d.kind == Kind::Race)
            .expect("race expected");
        assert!(race.message.contains("word 64"), "{}", race.message);
        assert!(race.message.contains("threads 0 and"), "{}", race.message);
    }

    #[test]
    fn read_write_overlap_is_a_race() {
        // Thread t writes word 512+t but reads word 512+t+1: thread
        // t+1's write overlaps thread t's read.
        let p = with_spawn(16, |b| {
            b.tid(ir(2));
            b.addi(ir(3), ir(2), 512);
            b.sw(ir(2), ir(3), 0);
            b.lw(ir(4), ir(3), 1);
        });
        let r = verify(&p);
        assert!(r.errors().any(|d| d.kind == Kind::Race), "{r}");
    }

    #[test]
    fn both_read_is_never_a_race() {
        let p = with_spawn(64, |b| {
            b.li(ir(3), 128);
            b.lw(ir(4), ir(3), 0); // all threads read the same word
            b.flw(fr(1), ir(3), 1);
        });
        let r = verify(&p);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn ps_ticketed_stores_are_sanctioned() {
        let p = with_spawn(96, |b| {
            b.li(ir(2), 1);
            b.ps(ir(3), ir(2), gr(0));
            b.slli(ir(4), ir(3), 1);
            b.sw(ir(3), ir(4), 0);
        });
        let r = verify(&p);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn top_address_is_a_potential_race() {
        // The store address is loaded from memory: untrackable, and
        // two stores through it cannot be proven disjoint.
        let p = with_spawn(4, |b| {
            b.tid(ir(2));
            b.addi(ir(3), ir(2), 32);
            b.lw(ir(4), ir(3), 0); // data-dependent pointer
            b.sw(ir(2), ir(4), 0);
        });
        let r = verify(&p);
        let race = r
            .errors()
            .find(|d| d.kind == Kind::Race)
            .expect("potential race expected");
        assert!(race.message.contains("potential"), "{}", race.message);
    }

    #[test]
    fn single_thread_spawn_cannot_race() {
        let p = with_spawn(1, |b| {
            b.lw(ir(4), ir(0), 16); // ⊤-chased pointer, one thread only
            b.sw(ir(4), ir(4), 0);
        });
        let r = verify(&p);
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn uninit_read_is_reported_in_both_modes() {
        let p = with_spawn(8, |b| {
            b.sw(ir(9), ir(0), 0); // r9 never written in the section
        });
        let r = verify(&p);
        assert!(
            r.errors()
                .any(|d| d.kind == Kind::UninitRead && d.message.contains("r9")),
            "{r}"
        );

        let mut b = ProgramBuilder::new();
        b.add(ir(2), ir(3), ir(0)); // serial read of unwritten r3
        b.halt();
        let r = verify(&b.build().unwrap());
        assert!(r.errors().any(|d| d.kind == Kind::UninitRead), "{r}");
    }

    #[test]
    fn uninit_must_hold_on_all_paths() {
        // r2 is written on one branch arm only: reading it after the
        // merge is flagged.
        let mut b = ProgramBuilder::new();
        let skip = b.label();
        b.li(ir(1), 1);
        b.beq(ir(1), ir(0), skip);
        b.li(ir(2), 5);
        b.bind(skip);
        b.add(ir(3), ir(2), ir(1));
        b.halt();
        let r = verify(&b.build().unwrap());
        assert!(r.errors().any(|d| d.kind == Kind::UninitRead), "{r}");
    }

    #[test]
    fn structural_violations_are_reported() {
        // join in serial code
        let mut b = ProgramBuilder::new();
        b.join();
        b.halt();
        let r = verify(&b.build().unwrap());
        assert!(r.errors().any(|d| d.kind == Kind::Structure), "{r}");

        // parallel section that never joins
        let mut b = ProgramBuilder::new();
        let par = b.label();
        let done = b.label();
        let spin = b.label();
        b.li(ir(1), 4);
        b.spawn(ir(1), par);
        b.jump(done);
        b.bind(par);
        b.bind(spin);
        b.jump(spin);
        b.bind(done);
        b.halt();
        let r = verify(&b.build().unwrap());
        assert!(
            r.errors()
                .any(|d| d.kind == Kind::Structure && d.message.contains("join")),
            "{r}"
        );
    }

    #[test]
    fn missing_halt_and_unreachable_are_warnings_only() {
        let mut b = ProgramBuilder::new();
        let spin = b.label();
        b.bind(spin);
        b.jump(spin);
        b.nop(); // unreachable
        let r = verify(&b.build().unwrap());
        assert!(r.is_clean(), "{r}");
        assert!(r.warnings().any(|d| d.kind == Kind::MissingHalt));
        assert!(r.warnings().any(|d| d.kind == Kind::Unreachable));
    }

    #[test]
    fn decoded_roundtrip_verifies_identically() {
        let p = with_spawn(16, |b| {
            b.tid(ir(2));
            b.addi(ir(3), ir(2), 64);
            b.sw(ir(2), ir(3), 0);
        });
        let bytes = xmt_isa::encode_program(&p);
        let p2 = xmt_isa::decode_program(&bytes).unwrap();
        let d = DecodedProgram::new(&p2);
        let (a, b) = (verify(&p), verify_decoded(&d));
        assert_eq!(a.diags, b.diags);
    }

    #[test]
    fn large_unknown_counts_fall_back_to_algebra() {
        // 2^16 threads exceeds ENUM_CAP: the injectivity argument must
        // carry the proof.
        let p = with_spawn(1 << 16, |b| {
            b.tid(ir(2));
            b.slli(ir(3), ir(2), 1);
            b.addi(ir(3), ir(3), 1 << 20);
            b.sw(ir(2), ir(3), 0);
            b.sw(ir(2), ir(3), 1);
        });
        let r = verify(&p);
        assert!(r.is_clean(), "{r}");
    }
}
