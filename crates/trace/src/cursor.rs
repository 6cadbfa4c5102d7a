//! Std-only byte cursor: little-endian reads over a slice and writes
//! into a `Vec<u8>`.
//!
//! This replaces the `bytes` crate's `Buf`/`BufMut` for the trace
//! codec. The reader is a plain slice window — callers check
//! [`Reader::remaining`] before reading, exactly as the codec's
//! truncation handling requires.
//!
//! # Examples
//!
//! ```
//! use tlat_trace::cursor::{PutBytes, Reader};
//!
//! let mut buf = Vec::new();
//! buf.put_u64_le(0xdead_beef);
//! buf.put_u8(7);
//! let mut r = Reader::new(&buf);
//! assert_eq!(r.get_u64_le(), 0xdead_beef);
//! assert_eq!(r.get_u8(), 7);
//! assert_eq!(r.remaining(), 0);
//! ```

/// Little-endian write helpers for a growable byte buffer.
pub trait PutBytes {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);
    /// Appends a `u64` in little-endian order.
    fn put_u64_le(&mut self, v: u64);
    /// Appends a byte slice verbatim.
    fn put_slice(&mut self, v: &[u8]);
}

impl PutBytes for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, v: &[u8]) {
        self.extend_from_slice(v);
    }
}

/// Appends `v` as an LEB128 varint: seven value bits per byte, low
/// bits first, high bit set on every byte except the last. Small
/// values cost one byte; `u64::MAX` costs ten.
///
/// # Examples
///
/// ```
/// use tlat_trace::cursor::{put_varint, Reader};
///
/// let mut buf = Vec::new();
/// put_varint(&mut buf, 300);
/// assert_eq!(buf, [0xac, 0x02]);
/// assert_eq!(Reader::new(&buf).get_varint(), Some(300));
/// ```
pub fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Maps a signed value onto an unsigned one with small absolute values
/// staying small (`0, -1, 1, -2, … → 0, 1, 2, 3, …`), so deltas in
/// either direction varint-encode compactly.
///
/// # Examples
///
/// ```
/// use tlat_trace::cursor::{unzigzag, zigzag};
///
/// assert_eq!(zigzag(-1), 1);
/// assert_eq!(zigzag(2), 4);
/// for v in [0i64, -5, 5, i64::MIN, i64::MAX] {
///     assert_eq!(unzigzag(zigzag(v)), v);
/// }
/// ```
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A read cursor over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Creates a cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// The unread remainder as a slice.
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    pub fn advance(&mut self, n: usize) {
        self.buf = &self.buf[n..];
    }

    /// Reads one byte.
    ///
    /// # Panics
    ///
    /// Panics if the cursor is empty; check [`Self::remaining`] first.
    pub fn get_u8(&mut self) -> u8 {
        let v = self.buf[0];
        self.buf = &self.buf[1..];
        v
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Panics
    ///
    /// Panics if fewer than eight bytes remain.
    pub fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.buf.split_at(8);
        self.buf = rest;
        u64::from_le_bytes(head.try_into().expect("split_at(8) is eight bytes"))
    }

    /// Reads an LEB128 varint written by [`put_varint`].
    ///
    /// Returns `None` when the buffer ends mid-varint or the encoding
    /// is malformed (more than ten bytes, or a tenth byte carrying
    /// anything beyond `u64`'s final bit) — unlike the fixed-width
    /// getters this never panics, because varint lengths come from
    /// untrusted trace files. On `None` the cursor position is
    /// unspecified; callers abandon the decode.
    pub fn get_varint(&mut self) -> Option<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            if self.buf.is_empty() {
                return None;
            }
            let b = self.get_u8();
            // The tenth byte (shift 63) can only carry u64's last bit;
            // anything more is an overlong/overflowing encoding.
            if shift == 63 && b & 0x7e != 0 || shift > 63 {
                return None;
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Some(v);
            }
            shift += 7;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_then_reads_roundtrip() {
        let mut buf = Vec::new();
        buf.put_u8(0xab);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_slice(b"xyz");
        let mut r = Reader::new(&buf);
        assert_eq!(r.remaining(), 1 + 8 + 3);
        assert_eq!(r.get_u8(), 0xab);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.rest(), b"xyz");
        r.advance(3);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn little_endian_layout_is_exact() {
        let mut buf = Vec::new();
        buf.put_u64_le(0x0807_0605_0403_0201);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    #[should_panic]
    fn reading_past_the_end_panics() {
        let mut r = Reader::new(&[1, 2]);
        let _ = r.get_u64_le();
    }

    #[test]
    fn varint_roundtrips_across_the_range() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for v in values {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.get_varint(), Some(v), "value {v}");
            assert_eq!(r.remaining(), 0, "value {v} left bytes behind");
        }
    }

    #[test]
    fn varint_lengths_are_minimal() {
        let mut buf = Vec::new();
        put_varint(&mut buf, 0);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_varint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        // Continuation bit set with nothing after it.
        assert_eq!(Reader::new(&[0x80]).get_varint(), None);
        assert_eq!(Reader::new(&[]).get_varint(), None);
        // Eleven-byte encoding: overlong.
        let overlong = [0x80u8; 10]
            .iter()
            .copied()
            .chain([0x01])
            .collect::<Vec<_>>();
        assert_eq!(Reader::new(&overlong).get_varint(), None);
        // Tenth byte carrying more than the final u64 bit.
        let mut toobig = vec![0xffu8; 9];
        toobig.push(0x02);
        assert_eq!(Reader::new(&toobig).get_varint(), None);
    }

    #[test]
    fn zigzag_orders_small_magnitudes_first() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for v in [-1000i64, -3, 0, 7, 123_456_789, i64::MIN, i64::MAX] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }
}
