//! Trace serialisation: a compact delta-encoded binary format.
//!
//! # Binary format (`BWST1`)
//!
//! ```text
//! magic   : 4 bytes  "BWST"
//! version : u16 LE   (1)
//! name    : u32 LE length + UTF-8 bytes
//! total   : u64 LE   total instructions
//! count   : u64 LE   record count
//! records : per record,
//!           varint( zigzag(pc - prev_pc) << 1 | taken )
//!           varint( time - prev_time )
//! ```
//!
//! Deltas are LEB128 varints: consecutive branches are usually close in
//! both address and time, so typical records cost 2–4 bytes instead of 17.
//!
//! # Example
//!
//! ```
//! use bwsa_trace::{io as trace_io, TraceBuilder};
//!
//! # fn main() -> Result<(), bwsa_trace::TraceError> {
//! let mut b = TraceBuilder::new("rt");
//! b.record(0x400, true, 5).record(0x404, false, 9);
//! let trace = b.finish();
//!
//! let mut buf = Vec::new();
//! trace_io::write_binary(&trace, &mut buf)?;
//! let back = trace_io::read_binary(&buf[..])?;
//! assert_eq!(back.records(), trace.records());
//! # Ok(())
//! # }
//! ```

use crate::codec::{self, Cursor};
use crate::{Trace, TraceBuilder, TraceError};
use std::io::{Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"BWST";
const VERSION: u16 = 1;

/// Encodes a trace into the `BWST1` binary format.
pub fn encode_binary(trace: &Trace) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32 + trace.len() * 4);
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    let name = trace.meta().name.as_bytes();
    codec::put_u32_le(&mut buf, name.len() as u32);
    buf.extend_from_slice(name);
    codec::put_u64_le(&mut buf, trace.meta().total_instructions);
    codec::put_u64_le(&mut buf, trace.len() as u64);
    let mut prev_pc = 0i64;
    let mut prev_time = 0u64;
    for rec in trace.records() {
        let pc = rec.pc.addr() as i64;
        let delta = codec::zigzag_encode(pc - prev_pc);
        codec::put_varint(&mut buf, (delta << 1) | rec.direction.as_bit());
        codec::put_varint(&mut buf, rec.time.get() - prev_time);
        prev_pc = pc;
        prev_time = rec.time.get();
    }
    buf
}

/// Writes a trace in binary format to any [`Write`] (a `&mut` reference
/// also works).
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
pub fn write_binary<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceError> {
    w.write_all(&encode_binary(trace))?;
    Ok(())
}

/// Reads a binary-format trace from any [`Read`] (a `&mut` reference also
/// works).
///
/// # Errors
///
/// Returns [`TraceError::Io`] on read failure and [`TraceError::Format`]
/// when the bytes are not a valid `BWST1` stream.
pub fn read_binary<R: Read>(mut r: R) -> Result<Trace, TraceError> {
    let mut raw = Vec::new();
    r.read_to_end(&mut raw)?;
    decode_binary(&raw)
}

/// Decodes a trace from an in-memory `BWST1` buffer. Every `BWST` decode
/// passes the `trace.read_binary` failpoint here.
///
/// # Errors
///
/// Returns [`TraceError::Format`] when the bytes are malformed.
pub fn decode_binary(raw: &[u8]) -> Result<Trace, TraceError> {
    bwsa_resilience::failpoint!(crate::failpoints::READ_BINARY);
    let mut buf = Cursor::new(raw);
    if raw.len() < 4 || &raw[..4] != MAGIC {
        return Err(TraceError::format_at("bad magic (expected \"BWST\")", 0));
    }
    buf.take(4)?;
    let version = buf
        .get_u16_le()
        .map_err(|_| TraceError::format("truncated header"))?;
    if version != VERSION {
        return Err(TraceError::format(format!(
            "unsupported version {version} (expected {VERSION})"
        )));
    }
    let name_len = buf
        .get_u32_le()
        .map_err(|_| TraceError::format("truncated name length"))? as usize;
    let name_bytes = buf
        .take(name_len)
        .map_err(|_| TraceError::format("truncated name"))?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|e| TraceError::format(format!("name is not utf-8: {e}")))?
        .to_owned();
    if buf.remaining() < 16 {
        return Err(TraceError::format("truncated counts"));
    }
    let total_instructions = buf.get_u64_le()?;
    let count = buf.get_u64_le()?;

    let mut builder = TraceBuilder::new(name);
    let mut prev_pc = 0i64;
    let mut prev_time = 0u64;
    for _ in 0..count {
        let tagged = buf.get_varint()?;
        let taken = tagged & 1 == 1;
        let pc = prev_pc
            .checked_add(codec::zigzag_decode(tagged >> 1))
            .ok_or_else(|| TraceError::format("pc delta overflow"))?;
        if pc < 0 {
            return Err(TraceError::format("negative pc"));
        }
        let time = prev_time
            .checked_add(buf.get_varint()?)
            .ok_or_else(|| TraceError::format("time overflow"))?;
        builder.record(pc as u64, taken, time);
        prev_pc = pc;
        prev_time = time;
    }
    if !buf.is_empty() {
        return Err(TraceError::format(format!(
            "{} trailing bytes after last record",
            buf.remaining()
        )));
    }
    builder.total_instructions(total_instructions);
    Ok(builder.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceBuilder;

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("sample");
        b.record(0x400, true, 5)
            .record(0x7fff_0000, false, 6)
            .record(0x400, true, 1000)
            .record(0x404, false, 1000);
        b.total_instructions(2000);
        b.finish()
    }

    #[test]
    fn binary_roundtrip_preserves_everything() {
        let t = sample();
        let bytes = encode_binary(&t);
        let back = decode_binary(&bytes).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_roundtrip_via_io_traits() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&buf[..]).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_is_compact_for_local_branches() {
        // A tight loop: same pc, stride-5 timestamps → ~3 bytes/record.
        let mut b = TraceBuilder::new("loop");
        for i in 1..=1000u64 {
            b.record(0x400, true, i * 5);
        }
        let t = b.finish();
        let bytes = encode_binary(&t);
        assert!(bytes.len() < 1000 * 4, "got {} bytes", bytes.len());
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let err = decode_binary(b"NOPE----").unwrap_err();
        assert!(err.to_string().contains("magic"));
    }

    #[test]
    fn decode_rejects_bad_version() {
        let t = sample();
        let mut bytes = encode_binary(&t);
        bytes[4] = 9;
        assert!(decode_binary(&bytes)
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn decode_rejects_truncation_everywhere() {
        let bytes = encode_binary(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_binary(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes should not decode"
            );
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_binary(&sample());
        bytes.push(0);
        assert!(decode_binary(&bytes)
            .unwrap_err()
            .to_string()
            .contains("trailing"));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty");
        let back = decode_binary(&encode_binary(&t)).unwrap();
        assert_eq!(back, t);
    }
}
