//! The little-endian byte codec primitives every binary format in the
//! workspace is built from: the checkpoint ([`crate::checkpoint`]) and,
//! in `xmt-server`, reports, requests, probe rows, net frames and
//! journal records. Fixed-width fields, `u32` length prefixes, no
//! padding.
//!
//! [`Reader`] is the one bounds-checked decoder: arbitrary, truncated
//! or bit-flipped input yields a static description of the first
//! violated invariant — never a panic, never an over-read, and never an
//! allocation sized by the input rather than by the bytes actually
//! present (every length prefix is bounded by the remaining payload).

/// Append `v`.
pub fn put_u32(b: &mut Vec<u8>, v: u32) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append `v`.
pub fn put_u64(b: &mut Vec<u8>, v: u64) {
    b.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed `u32` array.
pub fn put_u32s(b: &mut Vec<u8>, vs: &[u32]) {
    put_u32(b, vs.len() as u32);
    for &v in vs {
        put_u32(b, v);
    }
}

/// Append a length-prefixed `u64` array.
pub fn put_u64s(b: &mut Vec<u8>, vs: &[u64]) {
    put_u32(b, vs.len() as u32);
    put_words(b, vs);
}

/// Append a fixed-size word group (the stats structs' `to_words`): no
/// length prefix.
pub fn put_words(b: &mut Vec<u8>, ws: &[u64]) {
    for &w in ws {
        put_u64(b, w);
    }
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(b: &mut Vec<u8>, s: &str) {
    put_u32(b, s.len() as u32);
    b.extend_from_slice(s.as_bytes());
}

/// Bounds-checked reader over a byte slice, the inverse of the `put_*`
/// functions.
pub struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { b: bytes, pos: 0 }
    }

    /// True once every byte has been consumed (decoders reject
    /// trailing bytes).
    pub fn at_end(&self) -> bool {
        self.pos == self.b.len()
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], &'static str> {
        if n > self.b.len() - self.pos {
            return Err("payload truncated");
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, &'static str> {
        Ok(self.take(1)?[0])
    }

    /// One `u32`.
    pub fn u32(&mut self) -> Result<u32, &'static str> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("took 4 bytes")))
    }

    /// One `u64`.
    pub fn u64(&mut self) -> Result<u64, &'static str> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("took 8 bytes")))
    }

    /// A length prefix, bounded by the remaining payload so a corrupt
    /// count cannot drive a huge allocation.
    pub fn count(&mut self) -> Result<usize, &'static str> {
        let n = self.u32()? as usize;
        if n > self.b.len() - self.pos {
            return Err("length prefix exceeds payload");
        }
        Ok(n)
    }

    /// A length-prefixed `u32` array.
    pub fn u32s(&mut self) -> Result<Vec<u32>, &'static str> {
        let n = self.count()?;
        let le = |c: &[u8]| u32::from_le_bytes(c.try_into().expect("4-byte chunk"));
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes.chunks_exact(4).map(le).collect())
    }

    /// A length-prefixed `u64` array.
    pub fn u64s(&mut self) -> Result<Vec<u64>, &'static str> {
        let n = self.count()?;
        let le = |c: &[u8]| u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        let bytes = self.take(n.saturating_mul(8))?;
        Ok(bytes.chunks_exact(8).map(le).collect())
    }

    /// A fixed-size word group (no length prefix).
    pub fn words<const N: usize>(&mut self) -> Result<[u64; N], &'static str> {
        let mut w = [0; N];
        for v in &mut w {
            *v = self.u64()?;
        }
        Ok(w)
    }

    /// A length-prefixed byte blob.
    pub fn blob(&mut self) -> Result<Vec<u8>, &'static str> {
        let n = self.count()?;
        Ok(self.take(n)?.to_vec())
    }

    /// A length-prefixed UTF-8 string of at most `max` bytes.
    pub fn str(&mut self, max: usize) -> Result<String, &'static str> {
        let n = self.count()?;
        if n > max {
            return Err("string length exceeds field bound");
        }
        let s = std::str::from_utf8(self.take(n)?).map_err(|_| "string not UTF-8")?;
        Ok(s.to_string())
    }
}
