//! A minimal binary codec for sketch-state persistence.
//!
//! Linear sketches are long-lived state: a stream processor checkpoints its
//! sketch and resumes later (or ships it over the network — the
//! simultaneous-communication messages are exactly sketch fragments). This
//! module provides a small, explicit little-endian codec with no external
//! dependencies; every persistable structure implements [`Codec`].
//!
//! The format is versioned per structure by a leading magic byte chosen by
//! the implementor; decoding is fail-fast with positional errors and never
//! panics on malformed input.

use crate::fp61::Fp;
use crate::hash::{KWiseHash, UniformHash};

/// Decoding failure: what was expected and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset at which decoding failed.
    pub offset: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

/// An append-only little-endian byte writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Appends a raw byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian u32 (frame lengths, vertex ids).
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes verbatim (framing layers supply their own lengths).
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a usize (as u64).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Finishes and returns the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True iff nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// A bounds-checked little-endian byte reader.
#[derive(Debug)]
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Starts reading from the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { data, pos: 0 }
    }

    /// A decoding failure at the current position.
    pub fn fail(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            message: message.into(),
        }
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        let b = *self
            .data
            .get(self.pos)
            .ok_or_else(|| self.fail("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let end = self.pos + 4;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| self.fail("unexpected end of input"))?;
        self.pos = end;
        Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let end = self.pos + 8;
        let bytes = self
            .data
            .get(self.pos..end)
            .ok_or_else(|| self.fail("unexpected end of input"))?;
        self.pos = end;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    }

    /// Reads a usize with an upper bound (guards against hostile lengths).
    pub fn get_len(&mut self, max: usize) -> Result<usize, CodecError> {
        let v = self.get_u64()?;
        if v > max as u64 {
            return Err(self.fail(format!("length {v} exceeds bound {max}")));
        }
        Ok(v as usize)
    }

    /// True iff every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.data.len()
    }

    /// Fails unless the input is fully consumed.
    pub fn expect_end(&self) -> Result<(), CodecError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(self.fail(format!("{} trailing bytes", self.data.len() - self.pos)))
        }
    }
}

/// Binary-persistable state.
pub trait Codec: Sized {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut Writer);
    /// Reads a value back.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

impl Codec for u64 {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.get_u64()
    }
}

impl Codec for Fp {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.value());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Fp::new(r.get_u64()?))
    }
}

impl<T: Codec> Codec for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // 2^32 items is far beyond any sketch in this workspace.
        let len = r.get_len(1 << 32)?;
        let mut out = Vec::with_capacity(len.min(1 << 20));
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Codec for KWiseHash {
    fn encode(&self, w: &mut Writer) {
        self.coefficients().to_vec().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let coeffs: Vec<Fp> = Vec::decode(r)?;
        if coeffs.is_empty() {
            return Err(r.fail("hash with zero coefficients"));
        }
        Ok(KWiseHash::from_coefficients(coeffs))
    }
}

impl Codec for UniformHash {
    fn encode(&self, w: &mut Writer) {
        self.inner().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(UniformHash::from_inner(KWiseHash::decode(r)?))
    }
}

impl Codec for crate::fingerprint::Fingerprinter {
    fn encode(&self, w: &mut Writer) {
        self.point().encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let z = Fp::decode(r)?;
        if z.is_zero() || z == Fp::ONE {
            return Err(r.fail("degenerate fingerprint point"));
        }
        Ok(crate::fingerprint::Fingerprinter::from_point(z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seed::SeedTree;

    #[test]
    fn primitive_round_trips() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_bytes(&[9, 8]);
        42u64.encode(&mut w);
        Fp::new(123).encode(&mut w);
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u8().unwrap(), 9);
        assert_eq!(r.get_u8().unwrap(), 8);
        assert_eq!(u64::decode(&mut r).unwrap(), 42);
        assert_eq!(Fp::decode(&mut r).unwrap(), Fp::new(123));
        assert_eq!(Vec::<u64>::decode(&mut r).unwrap(), vec![1, 2, 3]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncated_input_fails_cleanly() {
        let mut w = Writer::new();
        vec![1u64, 2, 3].encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(Vec::<u64>::decode(&mut r).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn hostile_length_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // absurd vector length
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(Vec::<u64>::decode(&mut r).is_err());
    }

    #[test]
    fn hash_round_trips_preserve_behavior() {
        let h = KWiseHash::new(&SeedTree::new(5), 4);
        let mut w = Writer::new();
        h.encode(&mut w);
        let bytes = w.into_bytes();
        let h2 = KWiseHash::decode(&mut Reader::new(&bytes)).unwrap();
        for key in 0..200 {
            assert_eq!(h.eval(key), h2.eval(key));
            assert_eq!(h.bucket(key, 13), h2.bucket(key, 13));
        }
    }

    #[test]
    fn uniform_hash_and_fingerprinter_round_trip() {
        let seeds = SeedTree::new(6);
        let u = UniformHash::new(&seeds, 8);
        let f = crate::fingerprint::Fingerprinter::new(&seeds.child(1));
        let mut w = Writer::new();
        u.encode(&mut w);
        f.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let u2 = UniformHash::decode(&mut r).unwrap();
        let f2 = crate::fingerprint::Fingerprinter::decode(&mut r).unwrap();
        for key in 0..100 {
            assert_eq!(u.level(key, 20), u2.level(key, 20));
        }
        assert_eq!(f.point(), f2.point());
        r.expect_end().unwrap();
    }

    #[test]
    fn expect_end_catches_trailing_garbage() {
        let bytes = [0u8; 9];
        let mut r = Reader::new(&bytes);
        let _ = r.get_u64().unwrap();
        assert!(r.expect_end().is_err());
    }
}
