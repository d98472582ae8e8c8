//! Little-endian byte encode/decode helpers. Every multi-byte integer in
//! the format is little-endian regardless of host; the header's endianness
//! tag exists so a corrupted or foreign byte order is a structured error,
//! not a reinterpretation.
//!
//! Format v2 adds *aligned columns*: numeric arrays sit at 16-byte-aligned
//! payload offsets (reached via zero padding that is part of the
//! checksummed payload and verified to be zero on decode), so the borrowed
//! load path can hand out zero-copy [`Col`] views straight into the file.
//! [`Writer::pad_to_16`] / [`Reader::align_16`] / [`Reader::finish_padded`]
//! implement the padding discipline; `get_*_col` decodes a column either
//! owned (bulk copy) or borrowed (validated view), per the reader's
//! [`ColSource`].

use crate::error::StoreError;
use rae_core::column::{pod_bytes, pod_vec_from_bytes, FromLeBytes};
use rae_core::{Col, ColumnError, Pod, StableBytes};
use rae_data::Symbol;
use std::sync::Arc;

/// Where a decoded column's storage comes from.
#[derive(Clone)]
pub(crate) enum ColSource {
    /// Copy into owned vectors (the classic decode).
    Owned,
    /// Borrow zero-copy views from `owner`; `payload_base` is the
    /// absolute offset of the current section's payload within
    /// `owner.stable_bytes()`.
    Borrowed {
        owner: Arc<dyn StableBytes>,
        payload_base: usize,
    },
}

/// An append-only byte buffer for one section payload.
#[derive(Debug, Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    // Part of the scalar wire vocabulary; v2 writes u128s in bulk via
    // `put_col`, leaving this to tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Collection lengths are always `u64` on the wire (flat columns can
    /// exceed the `u32` element-id space: rows × arity).
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    pub fn put_str(&mut self, s: &str) {
        self.put_len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn put_symbol(&mut self, s: &Symbol) {
        self.put_str(s.as_str());
    }

    pub fn put_symbols(&mut self, syms: &[Symbol]) {
        self.put_len(syms.len());
        for s in syms {
            self.put_symbol(s);
        }
    }

    /// Zero-pads to the next 16-byte payload boundary (a no-op when
    /// already aligned). The padding is inside the checksummed payload;
    /// [`Reader::align_16`] verifies it decodes back as zeros.
    pub fn pad_to_16(&mut self) {
        let rem = self.buf.len() % 16;
        if rem != 0 {
            self.buf.resize(self.buf.len() + (16 - rem), 0);
        }
    }

    /// Appends a numeric column's little-endian bytes in bulk (a single
    /// `memcpy` on little-endian hosts). Callers align first.
    pub fn put_col<T: Pod + PutLe>(&mut self, v: &[T]) {
        debug_assert_eq!(self.buf.len() % 16, 0, "column written unaligned");
        #[cfg(target_endian = "little")]
        self.buf.extend_from_slice(pod_bytes(v));
        #[cfg(target_endian = "big")]
        for x in v {
            x.put_le(&mut self.buf);
        }
    }
}

/// Per-type little-endian append (the big-endian fallback of
/// [`Writer::put_col`]).
pub(crate) trait PutLe {
    #[cfg_attr(target_endian = "little", allow(dead_code))]
    fn put_le(&self, buf: &mut Vec<u8>);
}

macro_rules! impl_put_le {
    ($($t:ty),*) => {$(
        impl PutLe for $t {
            fn put_le(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
    )*};
}
impl_put_le!(u32, u64, u128, i64);

/// A bounds-checked cursor over one section payload. Every read failure is
/// a [`StoreError::Corrupt`] naming the section.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'a str,
    source: ColSource,
}

impl<'a> Reader<'a> {
    pub fn new(section: &'a str, buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
            source: ColSource::Owned,
        }
    }

    /// A reader whose `get_*_col` calls decode per `source` (owned copy
    /// or zero-copy borrow).
    pub fn with_source(section: &'a str, buf: &'a [u8], source: ColSource) -> Self {
        Reader {
            buf,
            pos: 0,
            section,
            source,
        }
    }

    fn corrupt(&self, detail: impl Into<String>) -> StoreError {
        StoreError::Corrupt {
            section: self.section.to_string(),
            detail: detail.into(),
        }
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.corrupt(format!("read past end ({n} bytes at {})", self.pos)))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    pub fn get_u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u32(&mut self) -> Result<u32, StoreError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_le_bytes(a))
    }

    pub fn get_u64(&mut self) -> Result<u64, StoreError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    // See `put_u128`: v2 reads u128 columns in bulk via `get_col`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn get_u128(&mut self) -> Result<u128, StoreError> {
        let b = self.take(16)?;
        let mut a = [0u8; 16];
        a.copy_from_slice(b);
        Ok(u128::from_le_bytes(a))
    }

    /// Reads a `u64` length and sanity-bounds it against the bytes left
    /// (each element needs at least `min_elem_bytes`), so a corrupted
    /// length cannot drive a multi-gigabyte allocation.
    pub fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, StoreError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n).map_err(|_| self.corrupt("length overflows usize"))?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(min_elem_bytes.max(1))
            .is_none_or(|bytes| bytes > remaining)
        {
            return Err(self.corrupt(format!(
                "length {n} needs more bytes than the {remaining} remaining"
            )));
        }
        Ok(n)
    }

    pub fn get_str(&mut self) -> Result<&'a str, StoreError> {
        let n = self.get_len(1)?;
        let bytes = self.take(n)?;
        std::str::from_utf8(bytes).map_err(|_| self.corrupt("string is not UTF-8"))
    }

    pub fn get_symbol(&mut self) -> Result<Symbol, StoreError> {
        Ok(Symbol::new(self.get_str()?))
    }

    pub fn get_symbols(&mut self) -> Result<Vec<Symbol>, StoreError> {
        let n = self.get_len(8)?;
        (0..n).map(|_| self.get_symbol()).collect()
    }

    /// Advances to the next 16-byte payload boundary, verifying the
    /// skipped padding is all zeros (any flipped padding bit is
    /// corruption — the padding is part of the checksummed payload).
    pub fn align_16(&mut self) -> Result<(), StoreError> {
        let rem = self.pos % 16;
        if rem != 0 {
            let pad = self.take(16 - rem)?;
            if pad.iter().any(|&b| b != 0) {
                return Err(self.corrupt("nonzero alignment padding"));
            }
        }
        Ok(())
    }

    /// Decodes an aligned numeric column of `len` elements: an owned
    /// bulk copy, or (borrowed source) a validated zero-copy view into
    /// the snapshot buffer. A view that cannot be constructed because of
    /// misalignment or a big-endian host surfaces as
    /// [`StoreError::Unborrowable`] — the loader's signal to fall back
    /// to the owned decode; true bounds violations stay `Corrupt`.
    pub fn get_col<T: Pod + FromLeBytes>(&mut self, len: usize) -> Result<Col<T>, StoreError> {
        self.align_16()?;
        let width = std::mem::size_of::<T>();
        let nbytes = len
            .checked_mul(width)
            .ok_or_else(|| self.corrupt("column byte length overflows"))?;
        let start = self.pos;
        let bytes = self.take(nbytes)?;
        match &self.source {
            ColSource::Owned => Ok(Col::Owned(pod_vec_from_bytes(bytes))),
            ColSource::Borrowed {
                owner,
                payload_base,
            } => {
                let abs = payload_base
                    .checked_add(start)
                    .ok_or_else(|| self.corrupt("column offset overflows"))?;
                Col::borrowed(Arc::clone(owner), abs, len).map_err(|e| match e {
                    ColumnError::Misaligned { .. } | ColumnError::ForeignEndian => {
                        StoreError::Unborrowable {
                            detail: e.to_string(),
                        }
                    }
                    // `take` already bounds-checked against the section,
                    // so an out-of-bounds here means the section table
                    // itself points outside the buffer.
                    ColumnError::OutOfBounds { .. } => self.corrupt(e.to_string()),
                })
            }
        }
    }

    /// Asserts the payload was consumed exactly (trailing garbage is
    /// corruption, not padding).
    pub fn finish(self) -> Result<(), StoreError> {
        if self.pos != self.buf.len() {
            return Err(self.corrupt(format!(
                "{} trailing bytes after the payload",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }

    /// [`Reader::finish`] for v2 sections, whose payloads are zero-padded
    /// to a 16-byte multiple: consumes the zero tail, then requires exact
    /// consumption. Nonzero tail bytes are corruption.
    pub fn finish_padded(mut self) -> Result<(), StoreError> {
        self.align_16()?;
        self.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars_and_values() {
        let mut w = Writer::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(u128::MAX / 3);
        w.put_symbol(&Symbol::new("héllo"));
        w.put_symbols(&[Symbol::new("a"), Symbol::new("b")]);
        let bytes = w.into_bytes();
        let mut r = Reader::new("test", &bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.get_symbol().unwrap(), Symbol::new("héllo"));
        assert_eq!(
            r.get_symbols().unwrap(),
            vec![Symbol::new("a"), Symbol::new("b")]
        );
        r.finish().unwrap();
    }

    #[test]
    fn oversized_length_is_structured_corruption() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX); // a length that cannot fit
        let bytes = w.into_bytes();
        let mut r = Reader::new("s", &bytes);
        assert!(matches!(
            r.get_len(8),
            Err(StoreError::Corrupt { section, .. }) if section == "s"
        ));
    }

    #[test]
    fn trailing_bytes_are_corruption() {
        let mut w = Writer::new();
        w.put_u32(1);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let mut r = Reader::new("s", &bytes);
        r.get_u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn aligned_columns_round_trip_owned() {
        let vals: Vec<u64> = (0..7u64).map(|i| i * 977).collect();
        let mut w = Writer::new();
        w.put_len(vals.len());
        w.pad_to_16();
        w.put_col(&vals);
        w.pad_to_16();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len() % 16, 0);
        let mut r = Reader::new("s", &bytes);
        let n = r.get_len(8).unwrap();
        let col: Col<u64> = r.get_col(n).unwrap();
        assert_eq!(col.as_slice(), vals.as_slice());
        r.finish_padded().unwrap();
    }

    #[test]
    fn nonzero_padding_is_corruption() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.pad_to_16();
        let mut bytes = w.into_bytes();
        bytes[7] = 0xAA; // flip a padding byte
        let mut r = Reader::new("s", &bytes);
        r.get_u8().unwrap();
        assert!(matches!(r.finish_padded(), Err(StoreError::Corrupt { .. })));
    }
}
