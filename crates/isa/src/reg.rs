//! Register model of the XMT-like ISA.
//!
//! Each TCU (and the MTCU) has 32 integer registers and 32 single-
//! precision floating-point registers — the register budget Section
//! IV-A of the paper cites when bounding the practical FFT radix at 8
//! ("each thread has access to 32 floating-point registers, which is
//! enough to store 16 single-precision complex numbers").

use std::fmt;

/// Number of integer registers per thread context.
pub const NUM_IREGS: usize = 32;
/// Number of floating-point registers per thread context.
pub const NUM_FREGS: usize = 32;
/// Number of global registers shared machine-wide (targets of
/// prefix-sum and broadcast reads).
pub const NUM_GREGS: usize = 16;

/// An integer register index. `i0` is hardwired to zero, like RISC `r0`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IReg(u8);

/// A floating-point register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FReg(u8);

/// A global register index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GReg(u8);

impl IReg {
    /// Construct; panics if out of range (kernel-construction error).
    pub fn new(i: usize) -> Self {
        assert!(i < NUM_IREGS, "integer register index {i} out of range");
        Self(i as u8)
    }
    /// The hardwired-zero register.
    pub const ZERO: IReg = IReg(0);
    /// The `index` value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FReg {
    /// Construct a new instance.
    pub fn new(i: usize) -> Self {
        assert!(i < NUM_FREGS, "fp register index {i} out of range");
        Self(i as u8)
    }
    /// The `index` value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl GReg {
    /// Construct a new instance.
    pub fn new(i: usize) -> Self {
        assert!(i < NUM_GREGS, "global register index {i} out of range");
        Self(i as u8)
    }
    /// The `index` value.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Shorthand constructor: `ir(3)` == `IReg::new(3)`.
pub fn ir(i: usize) -> IReg {
    IReg::new(i)
}
/// Shorthand constructor for FP registers.
pub fn fr(i: usize) -> FReg {
    FReg::new(i)
}
/// Shorthand constructor for global registers.
pub fn gr(i: usize) -> GReg {
    GReg::new(i)
}

impl fmt::Display for IReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}
impl fmt::Display for GReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

/// One thread context's registers as the execution kernels
/// ([`exec_compute`](crate::interp::exec_compute),
/// [`exec_uop`](crate::block::exec_uop),
/// [`eval_branch_uop`](crate::block::eval_branch_uop)) see them: raw
/// register indices as micro-ops carry them, `r0` reading zero and
/// discarding writes, and the thread id. Each kernel is written once,
/// generic over this trait, and monomorphised per storage: the
/// [`RegFile`] here, and the cycle simulator's view of one TCU's column
/// in its cluster's register store.
pub trait Regs {
    /// Integer register `r` (`r0` reads zero).
    fn read_i_raw(&self, r: u8) -> u32;
    /// Write integer register `r` (writes to `r0` are discarded).
    fn write_i_raw(&mut self, r: u8, v: u32);
    /// FP register `r`.
    fn read_f_raw(&self, r: u8) -> f32;
    /// Write FP register `r`.
    fn write_f_raw(&mut self, r: u8, v: f32);
    /// Virtual thread id (the XMTC `$`).
    fn tid(&self) -> u32;

    /// Typed [`Regs::read_i_raw`].
    #[inline(always)]
    fn read_i(&self, r: IReg) -> u32 {
        self.read_i_raw(r.0)
    }
    /// Typed [`Regs::write_i_raw`].
    #[inline(always)]
    fn write_i(&mut self, r: IReg, v: u32) {
        self.write_i_raw(r.0, v)
    }
    /// Typed [`Regs::read_f_raw`].
    #[inline(always)]
    fn read_f(&self, r: FReg) -> f32 {
        self.read_f_raw(r.0)
    }
    /// Typed [`Regs::write_f_raw`].
    #[inline(always)]
    fn write_f(&mut self, r: FReg, v: f32) {
        self.write_f_raw(r.0, v)
    }
}

/// A thread-private register file in the ISA's full shape — 32 integer
/// and 32 FP registers plus the thread id — whatever the program names.
/// The MTCU's registers and the untimed [`Interp`](crate::Interp)'s
/// threads use it; the cycle simulator's TCUs do not (their registers
/// live in a per-cluster store sized to the program).
#[derive(Debug, Clone)]
pub struct RegFile {
    iregs: [u32; NUM_IREGS],
    fregs: [f32; NUM_FREGS],
    /// Virtual thread id (the XMTC `$`); 0 for the MTCU.
    pub tid: u32,
}

impl RegFile {
    /// Construct a new instance.
    pub fn new(tid: u32) -> Self {
        Self {
            iregs: [0; NUM_IREGS],
            fregs: [0.0; NUM_FREGS],
            tid,
        }
    }
}

/// Indices are masked to range, matching the typed accessors for every
/// index an [`IReg`] or [`FReg`] can hold.
impl Regs for RegFile {
    #[inline(always)]
    fn read_i_raw(&self, r: u8) -> u32 {
        if r == 0 {
            0
        } else {
            self.iregs[(r & 31) as usize]
        }
    }

    #[inline(always)]
    fn write_i_raw(&mut self, r: u8, v: u32) {
        if r != 0 {
            self.iregs[(r & 31) as usize] = v;
        }
    }

    #[inline(always)]
    fn read_f_raw(&self, r: u8) -> f32 {
        self.fregs[(r & 31) as usize]
    }

    #[inline(always)]
    fn write_f_raw(&mut self, r: u8, v: f32) {
        self.fregs[(r & 31) as usize] = v;
    }

    #[inline(always)]
    fn tid(&self) -> u32 {
        self.tid
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_register_stays_zero() {
        let mut rf = RegFile::new(7);
        rf.write_i(IReg::ZERO, 42);
        assert_eq!(rf.read_i(IReg::ZERO), 0);
        rf.write_i(ir(5), 42);
        assert_eq!(rf.read_i(ir(5)), 42);
    }

    #[test]
    fn fp_registers_independent() {
        let mut rf = RegFile::new(0);
        rf.write_f(fr(0), 1.5);
        rf.write_f(fr(31), -2.5);
        assert_eq!(rf.read_f(fr(0)), 1.5);
        assert_eq!(rf.read_f(fr(31)), -2.5);
        assert_eq!(rf.read_i(ir(0)), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ireg_bounds_checked() {
        ir(32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn freg_bounds_checked() {
        fr(99);
    }

    #[test]
    fn display_forms() {
        assert_eq!(ir(3).to_string(), "r3");
        assert_eq!(fr(12).to_string(), "f12");
        assert_eq!(gr(1).to_string(), "g1");
    }
}
