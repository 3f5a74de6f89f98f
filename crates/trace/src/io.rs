//! Trace serialisation: a compact delta-encoded binary format and a
//! line-oriented text format.
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
//! # Text format
//!
//! One record per line: `pc_hex direction time`, e.g. `0x400 T 5`.
//! Lines beginning with `#` and blank lines are ignored.
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

/// Writes a trace in the human-readable text format.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
pub fn write_text<W: Write>(trace: &Trace, mut w: W) -> Result<(), TraceError> {
    writeln!(w, "# bwsa trace: {}", trace.meta().name)?;
    writeln!(
        w,
        "# total_instructions: {}",
        trace.meta().total_instructions
    )?;
    for rec in trace.records() {
        writeln!(w, "{:#x} {} {}", rec.pc.addr(), rec.direction, rec.time)?;
    }
    Ok(())
}

/// Reads a text-format trace.
///
/// The trace name is taken from a leading `# bwsa trace: <name>` comment
/// when present, otherwise `"text"`.
///
/// # Errors
///
/// Returns [`TraceError::Format`] (with a 1-based line number as offset)
/// when a line cannot be parsed, and [`TraceError::OutOfOrder`] when
/// timestamps regress.
pub fn read_text<R: Read>(mut r: R) -> Result<Trace, TraceError> {
    let mut s = String::new();
    r.read_to_string(&mut s)?;
    let mut trace = Trace::new("text");
    for (lineno, line) in s.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            if let Some(name) = rest.trim().strip_prefix("bwsa trace:") {
                trace.meta_mut().name = name.trim().to_owned();
            } else if let Some(total) = rest.trim().strip_prefix("total_instructions:") {
                trace.meta_mut().total_instructions = total.trim().parse().map_err(|e| {
                    TraceError::format_at(format!("bad total: {e}"), lineno as u64 + 1)
                })?;
            }
            continue;
        }
        let mut parts = line.split_whitespace();
        let err =
            |what: &str| TraceError::format_at(format!("{what}: {line:?}"), lineno as u64 + 1);
        let pc_str = parts.next().ok_or_else(|| err("missing pc"))?;
        let pc = if let Some(hex) = pc_str.strip_prefix("0x") {
            u64::from_str_radix(hex, 16).map_err(|_| err("bad hex pc"))?
        } else {
            pc_str.parse().map_err(|_| err("bad pc"))?
        };
        let taken = match parts.next().ok_or_else(|| err("missing direction"))? {
            "T" | "t" | "1" => true,
            "N" | "n" | "0" => false,
            _ => return Err(err("bad direction")),
        };
        let time: u64 = parts
            .next()
            .ok_or_else(|| err("missing time"))?
            .parse()
            .map_err(|_| err("bad time"))?;
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        trace.push(crate::BranchRecord::from_raw(pc, taken, time))?;
    }
    Ok(trace)
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
    fn text_roundtrip() {
        let t = sample();
        let mut buf = Vec::new();
        write_text(&t, &mut buf).unwrap();
        let back = read_text(&buf[..]).unwrap();
        assert_eq!(back.records(), t.records());
        assert_eq!(back.meta().name, "sample");
        assert_eq!(back.meta().total_instructions, 2000);
    }

    #[test]
    fn text_reader_tolerates_comments_and_blanks() {
        let src = "# a comment\n\n0x10 T 1\n  0x14 N 2 \n# end\n";
        let t = read_text(src.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn text_reader_reports_line_numbers() {
        let src = "0x10 T 1\n0x14 X 2\n";
        let err = read_text(src.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("offset 2"), "{err}");
    }

    #[test]
    fn text_reader_rejects_out_of_order() {
        let src = "0x10 T 10\n0x14 N 2\n";
        assert!(matches!(
            read_text(src.as_bytes()).unwrap_err(),
            TraceError::OutOfOrder { .. }
        ));
    }

    #[test]
    fn empty_trace_roundtrips() {
        let t = Trace::new("empty");
        let back = decode_binary(&encode_binary(&t)).unwrap();
        assert_eq!(back, t);
    }
}
