//! Shared low-level encoding primitives for the trace wire formats:
//! LEB128 varints, zigzag signed mapping, and CRC32 checksums.
//!
//! Both the whole-buffer [`crate::io`] (`BWST1`) and streaming
//! [`crate::stream`] (`BWSS1`/`BWSS2`) formats delta-encode records with
//! these primitives; the corpus result cache and the daemon's frames
//! reuse them too, so corruption detection behaves identically everywhere.
//!
//! # Example
//!
//! ```
//! use bwsa_trace::codec::{self, Cursor};
//!
//! let mut buf = Vec::new();
//! codec::put_varint(&mut buf, codec::zigzag_encode(-3));
//! codec::put_varint(&mut buf, 300);
//!
//! let mut cur = Cursor::new(&buf);
//! assert_eq!(codec::zigzag_decode(cur.get_varint().unwrap()), -3);
//! assert_eq!(cur.get_varint().unwrap(), 300);
//! assert!(cur.is_empty());
//! ```

use crate::TraceError;

/// Maps a signed value to an unsigned one with small absolute values
/// staying small: `0, -1, 1, -2, … → 0, 1, 2, 3, …`.
pub const fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag_encode`].
pub const fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Appends `v` as an LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Appends `v` as little-endian bytes.
pub fn put_u32_le(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends `v` as little-endian bytes.
pub fn put_u64_le(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// A consuming read cursor over a byte slice.
#[derive(Debug, Clone, Copy)]
pub struct Cursor<'a> {
    rest: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// Starts a cursor at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Cursor { rest: bytes }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// Returns `true` when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Consumes and returns `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        if self.rest.len() < n {
            return Err(TraceError::format(format!(
                "truncated input: wanted {n} bytes, {} remain",
                self.rest.len()
            )));
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Consumes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, TraceError> {
        Ok(self.take(1)?[0])
    }

    /// Consumes a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] on truncation.
    pub fn get_u16_le(&mut self) -> Result<u16, TraceError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Consumes a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] on truncation.
    pub fn get_u32_le(&mut self) -> Result<u32, TraceError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consumes a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] on truncation.
    pub fn get_u64_le(&mut self) -> Result<u64, TraceError> {
        let b = self.take(8)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(b);
        Ok(u64::from_le_bytes(raw))
    }

    /// Consumes an LEB128 varint.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] on truncation or when the encoding
    /// overflows a `u64` (more than 10 bytes, or a 10th byte above 1).
    pub fn get_varint(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = match self.rest.split_first() {
                Some((&b, tail)) => {
                    self.rest = tail;
                    b
                }
                None => return Err(TraceError::format("truncated varint")),
            };
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(TraceError::format("varint overflows u64"));
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }
}

/// CRC32 (IEEE 802.3, the zlib/`cksum -o 3` polynomial), computed bytewise
/// with a lazily built lookup table.
pub fn crc32(bytes: &[u8]) -> u32 {
    Crc32::new().update(bytes).finish()
}

/// Incremental CRC32 over multiple slices.
///
/// # Example
///
/// ```
/// use bwsa_trace::codec::{crc32, Crc32};
///
/// let whole = crc32(b"hello world");
/// let split = Crc32::new().update(b"hello ").update(b"world").finish();
/// assert_eq!(whole, split);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    ///
    /// Eight-byte words go through a slice-by-8 table pass — eight
    /// independent lookups per word instead of a one-byte dependency
    /// chain — which is what keeps block validation off the columnar
    /// ingest profile (DESIGN.md §16).
    #[must_use]
    pub fn update(mut self, bytes: &[u8]) -> Self {
        let tables = crc_tables();
        let mut chunks = bytes.chunks_exact(8);
        for word in chunks.by_ref() {
            let lo = self.state ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
            let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
            self.state = tables[7][(lo & 0xff) as usize]
                ^ tables[6][((lo >> 8) & 0xff) as usize]
                ^ tables[5][((lo >> 16) & 0xff) as usize]
                ^ tables[4][(lo >> 24) as usize]
                ^ tables[3][(hi & 0xff) as usize]
                ^ tables[2][((hi >> 8) & 0xff) as usize]
                ^ tables[1][((hi >> 16) & 0xff) as usize]
                ^ tables[0][(hi >> 24) as usize];
        }
        for &b in chunks.remainder() {
            let idx = (self.state ^ u32::from(b)) & 0xff;
            self.state = (self.state >> 8) ^ tables[0][idx as usize];
        }
        self
    }

    /// Finalises and returns the checksum.
    pub fn finish(self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// 64-bit FNV-1a content digest over a byte slice.
///
/// This is the trace-content half of the corpus result-cache key: two
/// trace files with the same bytes share a digest, and any byte change
/// moves it. FNV-1a is not collision-resistant against adversaries —
/// the cache's verify-on-read path (stored key + CRC framing) is what
/// rejects wrong cells; the digest only has to make accidental
/// collisions vanishingly unlikely.
pub fn content_digest(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Slice-by-8 lookup tables: `tables[0]` is the classic byte table,
/// `tables[k][b]` advances byte `b` through `k` further zero bytes, so
/// eight per-byte steps collapse into eight independent XORs.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[0u32; 256]; 8];
        for (i, entry) in tables[0].iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let byte_table = tables[0];
        for k in 1..8 {
            let prev_table = tables[k - 1];
            for (entry, &prev) in tables[k].iter_mut().zip(prev_table.iter()) {
                *entry = (prev >> 8) ^ byte_table[(prev & 0xff) as usize];
            }
        }
        tables
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_digest_is_stable_and_content_sensitive() {
        // Pinned FNV-1a vectors: the digest feeds durable cache keys,
        // so it must never change across releases.
        assert_eq!(content_digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        let base = content_digest(b"BWSS2 payload");
        let mut flipped = b"BWSS2 payload".to_vec();
        flipped[5] ^= 0x01;
        assert_ne!(content_digest(&flipped), base);
        assert_eq!(content_digest(b"BWSS2 payload"), base);
    }

    #[test]
    fn zigzag_is_a_bijection_on_extremes_and_samples() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            123_456_789,
            -987_654_321,
        ] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes map to small codes.
        assert_eq!(zigzag_encode(0), 0);
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn varint_roundtrips_boundary_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            300,
            (1 << 14) - 1,
            1 << 14,
            (1 << 21) - 1,
            1 << 21,
            (1 << 28) - 1,
            1 << 28,
            u32::MAX as u64,
            (1 << 35) - 1,
            (1 << 42) - 1,
            (1 << 49) - 1,
            (1 << 56) - 1,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert!(buf.len() <= 10, "{v} took {} bytes", buf.len());
            let mut cur = Cursor::new(&buf);
            assert_eq!(cur.get_varint().unwrap(), v);
            assert!(cur.is_empty());
        }
    }

    #[test]
    fn varint_length_grows_every_seven_bits() {
        for (v, len) in [(0u64, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3)] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), len, "for value {v}");
        }
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn varint_rejects_ten_byte_overflow() {
        // Eleven continuation bytes can never terminate within u64 range.
        let eleven = [0xffu8; 11];
        assert!(Cursor::new(&eleven).get_varint().is_err());
        // Ten bytes whose final byte exceeds the single valid top bit.
        let mut too_big = [0x80u8; 10];
        too_big[9] = 0x02;
        assert!(Cursor::new(&too_big).get_varint().is_err());
        // The largest encodable value still decodes.
        let mut max = [0xffu8; 10];
        max[9] = 0x01;
        assert_eq!(Cursor::new(&max).get_varint().unwrap(), u64::MAX);
    }

    #[test]
    fn varint_truncation_is_an_error() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        for cut in 0..buf.len() {
            assert!(
                Cursor::new(&buf[..cut]).get_varint().is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn cursor_fixed_width_reads_roundtrip() {
        let mut buf = Vec::new();
        buf.push(0xAB);
        put_u32_le(&mut buf, 0xDEAD_BEEF);
        put_u64_le(&mut buf, 0x0123_4567_89AB_CDEF);
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.get_u8().unwrap(), 0xAB);
        assert_eq!(cur.get_u32_le().unwrap(), 0xDEAD_BEEF);
        assert_eq!(cur.get_u64_le().unwrap(), 0x0123_4567_89AB_CDEF);
        assert!(cur.is_empty());
        assert!(cur.get_u8().is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn crc32_detects_single_bit_flips() {
        let data = b"branch working set analysis".to_vec();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[byte] ^= 1 << bit;
                assert_ne!(crc32(&corrupt), clean, "flip at {byte}.{bit} undetected");
            }
        }
    }

    #[test]
    fn incremental_crc_equals_one_shot() {
        let data: Vec<u8> = (0..=255).collect();
        for split in [0, 1, 7, 128, 255, 256] {
            let inc = Crc32::new()
                .update(&data[..split])
                .update(&data[split..])
                .finish();
            assert_eq!(inc, crc32(&data));
        }
    }
}
