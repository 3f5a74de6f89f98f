//! Streaming trace IO: write and read traces of unbounded length with
//! bounded memory, durably.
//!
//! The whole-buffer format in [`crate::io`] needs the record count up
//! front. The streaming formats instead frame delta-encoded records into
//! chunks ending with an end marker plus trailer, so a producer can emit
//! records as they happen (e.g. an interpreter profiling a long run) and a
//! consumer can iterate without materialising the trace.
//!
//! # `BWSS2` wire format (current)
//!
//! ```text
//! header : magic "BWSS", version u16 LE (2), name (u32 LE len + UTF-8)
//! chunk  : sync        4 bytes  5A B5 1E C7
//!          count       u32 LE   record count (>0 for data chunks)
//!          payload_len u32 LE   payload byte length
//!          anchor_pc   u64 LE   absolute pc of the chunk's first record
//!          anchor_time u64 LE   absolute time of the chunk's first record
//!          crc32       u32 LE   IEEE CRC32 over count ‖ payload_len ‖
//!                               anchor_pc ‖ anchor_time ‖ payload
//!          payload     delta-encoded records (see below)
//! end    : a chunk with count == 0 whose 8-byte payload is
//!          total_instructions u64 LE
//! ```
//!
//! Payload records are the `BWST1` pair of LEB128 varints,
//! `zigzag(pc - prev_pc) << 1 | taken` then `time - prev_time`, **with the
//! delta state reset to the chunk's anchors at every chunk boundary**: the
//! first record of a chunk always encodes as deltas of zero from
//! `(anchor_pc, anchor_time)`. Each chunk is therefore self-contained —
//! decoding needs nothing from earlier chunks.
//!
//! ## Corruption detection and recovery
//!
//! Three properties make a damaged stream salvageable:
//!
//! 1. the CRC32 rejects chunks whose header or payload bytes changed;
//! 2. the sync marker gives a resynchronisation point — a reader that
//!    loses framing scans forward byte-by-byte for the next marker that
//!    heads a chunk with a valid CRC;
//! 3. the per-chunk anchors re-absolutise the delta state, so a dropped
//!    chunk corrupts nothing after it.
//!
//! A [`StreamReader`] opened with [`StreamReader::with_recovery`] and
//! [`RecoveryPolicy::Salvage`] skips damaged regions instead of failing,
//! drops duplicated or out-of-order chunks (replay of stale data), treats
//! truncation as end-of-stream, and tallies what happened in a
//! [`SalvageReport`]. The default [`RecoveryPolicy::Strict`] reader fails
//! fast with [`TraceError::Corrupt`] on the first inconsistency.
//!
//! # `BWSS1` (legacy, read-only)
//!
//! ```text
//! magic "BWSS", version u16 LE (1), name (u32 LE len + UTF-8)
//! repeat: chunk = u32 LE record_count (>0), records (varint deltas as BWST1)
//! end:    u32 LE 0, u64 LE total_instructions
//! ```
//!
//! `BWSS1` has no checksums, no sync markers, and continuous delta state,
//! so salvage degrades to recovering the valid prefix. [`StreamWriter`]
//! always writes `BWSS2`; [`StreamReader`] reads both.
//!
//! # Example
//!
//! ```
//! use bwsa_trace::stream::{StreamReader, StreamWriter};
//! use bwsa_trace::BranchRecord;
//!
//! # fn main() -> Result<(), bwsa_trace::TraceError> {
//! let mut buf = Vec::new();
//! let mut w = StreamWriter::new(&mut buf, "live")?;
//! for i in 0..10_000u64 {
//!     w.push(BranchRecord::from_raw(0x400 + (i % 7) * 4, i % 3 == 0, i + 1))?;
//! }
//! w.finish(123_456)?;
//!
//! let mut r = StreamReader::new(&buf[..])?;
//! assert_eq!(r.name(), "live");
//! let n = r.by_ref().count();
//! assert_eq!(n, 10_000);
//! assert_eq!(r.total_instructions(), Some(123_456));
//! assert!(r.salvage_report().clean());
//! # Ok(())
//! # }
//! ```

use crate::codec::{self, Crc32, Cursor};
use crate::{BranchRecord, TraceError};
use bwsa_obs::Obs;
use std::fmt;
use std::io::{Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"BWSS";
/// Legacy stream version.
const VERSION_1: u16 = 1;
/// Current stream version.
const VERSION_2: u16 = 2;
/// Chunk sync marker; chosen to be unlikely in varint payload runs.
const SYNC: [u8; 4] = [0x5A, 0xB5, 0x1E, 0xC7];
/// Bytes in a v2 frame header: sync + count + payload_len + anchors + crc.
const FRAME_HEADER: usize = 4 + 4 + 4 + 8 + 8 + 4;
/// Records per chunk by default. Public so downstream tooling (e.g. the
/// CLI's `--checkpoint-every <chunks>` flag) can convert between chunk and
/// record counts.
pub const DEFAULT_CHUNK_RECORDS: usize = 4096;
/// A writer flushes early rather than exceed this payload size.
const MAX_WRITER_PAYLOAD: usize = 1 << 22;
/// A reader rejects frames claiming a payload above this (corrupt length
/// fields must not trigger huge allocations).
const MAX_READER_PAYLOAD: u32 = 1 << 24;

/// How a [`StreamReader`] responds to corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// Fail with [`TraceError::Corrupt`] at the first inconsistency.
    #[default]
    Strict,
    /// Skip damaged chunks, resynchronise on the next valid one, treat
    /// truncation as end-of-stream, and record the damage in a
    /// [`SalvageReport`]. Only genuine I/O failures surface as errors.
    Salvage,
}

/// Tally of what a salvage (or strict) read encountered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SalvageReport {
    /// Data chunks that passed validation and were decoded.
    pub chunks_ok: u64,
    /// Chunks (or damaged regions resolving to one resync) discarded.
    pub chunks_dropped: u64,
    /// Records yielded to the consumer.
    pub records_recovered: u64,
    /// Description of the first inconsistency, if any.
    pub first_error: Option<String>,
}

impl SalvageReport {
    /// `true` when the stream read back with no damage at all.
    pub fn clean(&self) -> bool {
        self.chunks_dropped == 0 && self.first_error.is_none()
    }

    fn note(&mut self, error: impl FnOnce() -> String) {
        if self.first_error.is_none() {
            self.first_error = Some(error());
        }
    }
}

impl fmt::Display for SalvageReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} chunks ok, {} dropped, {} records recovered",
            self.chunks_ok, self.chunks_dropped, self.records_recovered
        )?;
        if let Some(e) = &self.first_error {
            write!(f, "; first error: {e}")?;
        }
        Ok(())
    }
}

/// Location of one frame inside an in-memory `BWSS2` stream, as reported
/// by [`frame_spans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSpan {
    /// Byte offset of the frame's sync marker.
    pub offset: usize,
    /// Total frame length (header + payload).
    pub len: usize,
    /// Record count (0 for the end frame).
    pub records: u32,
}

/// Byte length of the stream header (magic, version, name) of an
/// in-memory `BWSS` stream — the offset at which the chunked body starts.
///
/// # Errors
///
/// Returns [`TraceError::Format`] when the header is malformed.
pub fn body_offset(buf: &[u8]) -> Result<usize, TraceError> {
    let mut cur = Cursor::new(buf);
    if cur.take(4)? != MAGIC {
        return Err(TraceError::format_at("bad magic (expected \"BWSS\")", 0));
    }
    cur.get_u16_le()?;
    let name_len = cur.get_u32_le()? as usize;
    cur.take(name_len)?;
    Ok(buf.len() - cur.remaining())
}

/// Walks an intact in-memory `BWSS2` stream and reports where each frame
/// sits. Useful for tooling and targeted fault injection; fails on the
/// first framing inconsistency rather than resynchronising.
///
/// # Errors
///
/// Returns [`TraceError::Format`] when the walk lands off a frame.
pub fn frame_spans(buf: &[u8]) -> Result<Vec<FrameSpan>, TraceError> {
    let mut offset = body_offset(buf)?;
    let mut spans = Vec::new();
    while offset < buf.len() {
        if buf.len() - offset < FRAME_HEADER {
            return Err(TraceError::format_at(
                "truncated frame header",
                offset as u64,
            ));
        }
        if buf[offset..offset + 4] != SYNC {
            return Err(TraceError::format_at("missing sync marker", offset as u64));
        }
        let mut cur = Cursor::new(&buf[offset + 4..]);
        let records = cur.get_u32_le()?;
        let payload_len = cur.get_u32_le()? as usize;
        let len = FRAME_HEADER + payload_len;
        if buf.len() - offset < len {
            return Err(TraceError::format_at(
                "truncated frame payload",
                offset as u64,
            ));
        }
        spans.push(FrameSpan {
            offset,
            len,
            records,
        });
        offset += len;
        if records == 0 {
            break;
        }
    }
    Ok(spans)
}

/// Incremental writer of the `BWSS2` streaming format.
///
/// Call [`StreamWriter::finish`] to emit the end marker and trailer;
/// dropping the writer without finishing produces a truncated stream
/// (which a [`RecoveryPolicy::Salvage`] reader still recovers records
/// from).
#[derive(Debug)]
pub struct StreamWriter<W: Write> {
    sink: W,
    version: u16,
    chunk_records: usize,
    buf: Vec<u8>,
    pending: u32,
    anchor_pc: u64,
    anchor_time: u64,
    prev_pc: i64,
    prev_time: u64,
    last_time: u64,
}

impl<W: Write> StreamWriter<W> {
    /// Writes a `BWSS2` stream header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn new(sink: W, name: &str) -> Result<Self, TraceError> {
        Self::with_version(sink, name, VERSION_2)
    }

    /// Writes a legacy `BWSS1` stream header (no checksums); exists so
    /// back-compat reading stays testable against a real producer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn new_v1(sink: W, name: &str) -> Result<Self, TraceError> {
        Self::with_version(sink, name, VERSION_1)
    }

    fn with_version(mut sink: W, name: &str, version: u16) -> Result<Self, TraceError> {
        let mut header = Vec::with_capacity(10 + name.len());
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&version.to_le_bytes());
        codec::put_u32_le(&mut header, name.len() as u32);
        header.extend_from_slice(name.as_bytes());
        sink.write_all(&header)?;
        Ok(StreamWriter {
            sink,
            version,
            chunk_records: DEFAULT_CHUNK_RECORDS,
            buf: Vec::with_capacity(DEFAULT_CHUNK_RECORDS * 4),
            pending: 0,
            anchor_pc: 0,
            anchor_time: 0,
            prev_pc: 0,
            prev_time: 0,
            last_time: 0,
        })
    }

    /// Overrides the records-per-chunk threshold (minimum 1). Mostly for
    /// tests that want many small chunks.
    #[must_use]
    pub fn with_chunk_records(mut self, n: usize) -> Self {
        self.chunk_records = n.max(1);
        self
    }

    /// Appends a record, flushing a chunk when the threshold is reached.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::OutOfOrder`] if the record's timestamp
    /// precedes the previous one's, or [`TraceError::Io`] on write
    /// failure.
    pub fn push(&mut self, record: BranchRecord) -> Result<(), TraceError> {
        let time = record.time.get();
        if time < self.last_time {
            return Err(TraceError::OutOfOrder {
                previous: self.last_time,
                found: time,
            });
        }
        let pc_raw = record.pc.addr();
        let pc = pc_raw as i64;
        if self.version == VERSION_2 && self.pending == 0 {
            // Chunk start: re-anchor the delta state so the chunk is
            // self-contained (its first record encodes as zero deltas).
            self.anchor_pc = pc_raw;
            self.anchor_time = time;
            self.prev_pc = pc;
            self.prev_time = time;
        }
        let delta = codec::zigzag_encode(pc - self.prev_pc);
        codec::put_varint(&mut self.buf, (delta << 1) | record.direction.as_bit());
        codec::put_varint(&mut self.buf, time - self.prev_time);
        self.prev_pc = pc;
        self.prev_time = time;
        self.last_time = time;
        self.pending += 1;
        if self.pending as usize >= self.chunk_records || self.buf.len() >= MAX_WRITER_PAYLOAD {
            self.flush_chunk()?;
        }
        Ok(())
    }

    fn flush_chunk(&mut self) -> Result<(), TraceError> {
        if self.pending == 0 {
            return Ok(());
        }
        if self.version == VERSION_1 {
            self.sink.write_all(&self.pending.to_le_bytes())?;
            self.sink.write_all(&self.buf)?;
        } else {
            self.write_frame(self.pending, self.anchor_pc, self.anchor_time)?;
        }
        self.buf.clear();
        self.pending = 0;
        Ok(())
    }

    fn write_frame(
        &mut self,
        count: u32,
        anchor_pc: u64,
        anchor_time: u64,
    ) -> Result<(), TraceError> {
        let mut hashed = Vec::with_capacity(24);
        codec::put_u32_le(&mut hashed, count);
        codec::put_u32_le(&mut hashed, self.buf.len() as u32);
        codec::put_u64_le(&mut hashed, anchor_pc);
        codec::put_u64_le(&mut hashed, anchor_time);
        let crc = Crc32::new().update(&hashed).update(&self.buf).finish();
        self.sink.write_all(&SYNC)?;
        self.sink.write_all(&hashed)?;
        self.sink.write_all(&crc.to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        Ok(())
    }

    /// Flushes the final chunk and writes the end marker and trailer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn finish(mut self, total_instructions: u64) -> Result<(), TraceError> {
        self.flush_chunk()?;
        if self.version == VERSION_1 {
            self.sink.write_all(&0u32.to_le_bytes())?;
            self.sink.write_all(&total_instructions.to_le_bytes())?;
        } else {
            codec::put_u64_le(&mut self.buf, total_instructions);
            self.write_frame(0, 0, 0)?;
            self.buf.clear();
        }
        self.sink.flush()?;
        Ok(())
    }
}

/// Iterating reader of the `BWSS2` (and legacy `BWSS1`) streaming formats.
///
/// Yields `Result<BranchRecord, TraceError>`; after the iterator returns
/// `None`, [`StreamReader::total_instructions`] reports the trailer if the
/// stream ended cleanly and [`StreamReader::salvage_report`] tallies any
/// damage encountered.
#[derive(Debug)]
pub struct StreamReader<R: Read> {
    source: R,
    name: String,
    version: u16,
    policy: RecoveryPolicy,
    report: SalvageReport,
    total_instructions: Option<u64>,
    failed: bool,
    done: bool,
    /// Buffered bytes from `source`; `start` indexes the unconsumed head.
    buf: Vec<u8>,
    start: usize,
    eof: bool,
    /// Current chunk's decode state.
    payload: Vec<u8>,
    pay_off: usize,
    remaining_in_chunk: u32,
    prev_pc: i64,
    prev_time: u64,
    /// v2 bookkeeping: chunk counter, newest yielded timestamp, and the
    /// previous accepted frame's identity (duplicate detection).
    chunk_index: u64,
    last_time_seen: u64,
    last_sig: Option<(u32, u32, u64, u64, u32)>,
    /// CRC mismatches encountered (distinct from other corruption).
    crc_failures: u64,
    /// Observability: counter sink plus the last values already synced to
    /// it, so each `next()` reports only deltas.
    obs: Obs,
    obs_chunks_ok: u64,
    obs_chunks_dropped: u64,
    obs_crc_failures: u64,
}

impl<R: Read> StreamReader<R> {
    /// Reads and validates the stream header with the default
    /// [`RecoveryPolicy::Strict`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when the header is malformed.
    pub fn new(source: R) -> Result<Self, TraceError> {
        Self::with_recovery(source, RecoveryPolicy::Strict)
    }

    /// Reads and validates the stream header, reading the body under
    /// `policy`.
    ///
    /// The header itself (magic, version, name) is always strict: without
    /// it there is no format to salvage against.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when the header is malformed.
    pub fn with_recovery(mut source: R, policy: RecoveryPolicy) -> Result<Self, TraceError> {
        let mut header = [0u8; 6];
        source.read_exact(&mut header)?;
        if &header[..4] != MAGIC {
            return Err(TraceError::format_at("bad magic (expected \"BWSS\")", 0));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != VERSION_1 && version != VERSION_2 {
            return Err(TraceError::format(format!(
                "unsupported stream version {version} (expected {VERSION_1} or {VERSION_2})"
            )));
        }
        let mut len = [0u8; 4];
        source.read_exact(&mut len)?;
        let name_len = u32::from_le_bytes(len) as usize;
        let mut name = vec![0u8; name_len];
        source.read_exact(&mut name)?;
        let name = String::from_utf8(name)
            .map_err(|e| TraceError::format(format!("name is not utf-8: {e}")))?;
        Ok(StreamReader {
            source,
            name,
            version,
            policy,
            report: SalvageReport::default(),
            total_instructions: None,
            failed: false,
            done: false,
            buf: Vec::new(),
            start: 0,
            eof: false,
            payload: Vec::new(),
            pay_off: 0,
            remaining_in_chunk: 0,
            prev_pc: 0,
            prev_time: 0,
            chunk_index: 0,
            last_time_seen: 0,
            last_sig: None,
            crc_failures: 0,
            obs: Obs::noop(),
            obs_chunks_ok: 0,
            obs_chunks_dropped: 0,
            obs_crc_failures: 0,
        })
    }

    /// The stream's trace name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The format version being read (1 or 2).
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The trailer value, available once the stream has been fully
    /// iterated and ended cleanly. `None` after truncation.
    pub fn total_instructions(&self) -> Option<u64> {
        self.total_instructions
    }

    /// What validation and salvage encountered so far. Complete once the
    /// iterator has returned `None`.
    pub fn salvage_report(&self) -> &SalvageReport {
        &self.report
    }

    /// Attaches an observer. The reader reports `trace.records_read`,
    /// `trace.chunks_ok`, `trace.chunks_dropped`, and
    /// `trace.crc_failures` counters as iteration progresses; decoding is
    /// unaffected.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Chunk checksum mismatches encountered so far (a subset of the
    /// damage in [`StreamReader::salvage_report`]).
    pub fn crc_failures(&self) -> u64 {
        self.crc_failures
    }

    /// Pushes counter deltas since the last sync into the observer.
    fn sync_obs(&mut self) {
        if !self.obs.is_recording() {
            return;
        }
        self.obs.add(
            "trace.chunks_ok",
            self.report.chunks_ok - self.obs_chunks_ok,
        );
        self.obs.add(
            "trace.chunks_dropped",
            self.report.chunks_dropped - self.obs_chunks_dropped,
        );
        self.obs.add(
            "trace.crc_failures",
            self.crc_failures - self.obs_crc_failures,
        );
        self.obs_chunks_ok = self.report.chunks_ok;
        self.obs_chunks_dropped = self.report.chunks_dropped;
        self.obs_crc_failures = self.crc_failures;
    }

    fn salvaging(&self) -> bool {
        self.policy == RecoveryPolicy::Salvage
    }

    /// Unconsumed buffered bytes.
    fn available(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Tries to buffer at least `n` unconsumed bytes; `Ok(false)` means
    /// EOF arrived first.
    fn ensure(&mut self, n: usize) -> Result<bool, TraceError> {
        while self.available() < n {
            if self.eof {
                return Ok(false);
            }
            let mut tmp = [0u8; 8192];
            let got = self.source.read(&mut tmp)?;
            if got == 0 {
                self.eof = true;
            } else {
                self.buf.extend_from_slice(&tmp[..got]);
            }
        }
        Ok(true)
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.buf.len());
        if self.start >= 1 << 16 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Strict: fail. Salvage: note the damage (one drop per contiguous
    /// damaged region) and slide forward one byte to keep scanning.
    fn corrupt_or_scan(&mut self, scanning: &mut bool, reason: &str) -> Result<(), TraceError> {
        if !self.salvaging() {
            self.failed = true;
            return Err(TraceError::Corrupt {
                chunk: self.chunk_index,
                reason: reason.to_owned(),
            });
        }
        if !*scanning {
            *scanning = true;
            self.report.chunks_dropped += 1;
            let chunk = self.chunk_index;
            self.report.note(|| format!("chunk {chunk}: {reason}"));
        }
        self.consume(1);
        Ok(())
    }

    /// EOF arrived before a complete frame. `scanning` says whether the
    /// leftover bytes were already charged as a dropped region.
    fn handle_truncation(&mut self, reason: &str, scanning: bool) -> Result<bool, TraceError> {
        if !self.salvaging() {
            self.failed = true;
            return Err(TraceError::Corrupt {
                chunk: self.chunk_index,
                reason: reason.to_owned(),
            });
        }
        let chunk = self.chunk_index;
        self.report.note(|| format!("chunk {chunk}: {reason}"));
        if self.available() > 0 && !scanning {
            self.report.chunks_dropped += 1;
        }
        let leftover = self.available();
        self.consume(leftover);
        self.done = true;
        Ok(false)
    }

    /// Advances to the next valid v2 data chunk. `Ok(true)` loaded one;
    /// `Ok(false)` means the stream is over (clean end marker, or salvaged
    /// truncation).
    fn next_frame_v2(&mut self) -> Result<bool, TraceError> {
        let mut scanning = false;
        loop {
            if !self.ensure(4)? {
                if self.available() == 0 && !scanning {
                    return self.handle_truncation("stream ends without end marker", scanning);
                }
                return self
                    .handle_truncation("truncated or unrecognisable trailing bytes", scanning);
            }
            if self.buf[self.start..self.start + 4] != SYNC {
                self.corrupt_or_scan(&mut scanning, "bad sync marker")?;
                continue;
            }
            if !self.ensure(FRAME_HEADER)? {
                if !self.salvaging() {
                    return self.handle_truncation("truncated chunk header", scanning);
                }
                // EOF, but the remaining bytes are all buffered — keep
                // scanning them; a later (shorter) frame may still parse.
                self.corrupt_or_scan(&mut scanning, "truncated chunk header")?;
                continue;
            }
            let mut header = [0u8; FRAME_HEADER];
            header.copy_from_slice(&self.buf[self.start..self.start + FRAME_HEADER]);
            let mut cur = Cursor::new(&header[4..]);
            let count = cur.get_u32_le()?;
            let payload_len = cur.get_u32_le()?;
            let anchor_pc = cur.get_u64_le()?;
            let anchor_time = cur.get_u64_le()?;
            let crc = cur.get_u32_le()?;
            let plausible = payload_len <= MAX_READER_PAYLOAD
                && if count == 0 {
                    payload_len == 8
                } else {
                    u64::from(count) * 2 <= u64::from(payload_len)
                };
            if !plausible {
                self.corrupt_or_scan(&mut scanning, "implausible chunk header")?;
                continue;
            }
            if !self.ensure(FRAME_HEADER + payload_len as usize)? {
                if !self.salvaging() {
                    return self.handle_truncation("truncated chunk payload", scanning);
                }
                // A corrupted length can claim more than remains; don't
                // mistake that for truncation — scan for the next frame.
                self.corrupt_or_scan(&mut scanning, "truncated chunk payload")?;
                continue;
            }
            let pstart = self.start + FRAME_HEADER;
            let pend = pstart + payload_len as usize;
            let actual = Crc32::new()
                .update(&header[4..FRAME_HEADER - 4])
                .update(&self.buf[pstart..pend])
                .finish();
            if actual != crc {
                self.crc_failures += 1;
                self.corrupt_or_scan(&mut scanning, "chunk checksum mismatch")?;
                continue;
            }
            // The frame is internally consistent. Reject replays: an exact
            // duplicate of the previous chunk, or a chunk anchored before
            // data we already yielded.
            let sig = (count, payload_len, anchor_pc, anchor_time, crc);
            if self.last_sig == Some(sig) {
                if !self.salvaging() {
                    self.failed = true;
                    return Err(TraceError::Corrupt {
                        chunk: self.chunk_index,
                        reason: "duplicated chunk".to_owned(),
                    });
                }
                self.report.chunks_dropped += 1;
                let chunk = self.chunk_index;
                self.report
                    .note(|| format!("chunk {chunk}: duplicated chunk"));
                self.consume(FRAME_HEADER + payload_len as usize);
                scanning = false;
                continue;
            }
            if count > 0 && anchor_time < self.last_time_seen {
                if !self.salvaging() {
                    self.failed = true;
                    return Err(TraceError::Corrupt {
                        chunk: self.chunk_index,
                        reason: "chunk anchored before already-read records".to_owned(),
                    });
                }
                self.report.chunks_dropped += 1;
                let chunk = self.chunk_index;
                self.report
                    .note(|| format!("chunk {chunk}: chunk anchored before already-read records"));
                self.consume(FRAME_HEADER + payload_len as usize);
                scanning = false;
                continue;
            }
            if count == 0 {
                let mut trailer = Cursor::new(&self.buf[pstart..pend]);
                self.total_instructions = Some(trailer.get_u64_le()?);
                self.consume(FRAME_HEADER + payload_len as usize);
                self.done = true;
                return Ok(false);
            }
            self.payload.clear();
            self.payload.extend_from_slice(&self.buf[pstart..pend]);
            self.pay_off = 0;
            self.remaining_in_chunk = count;
            self.prev_pc = anchor_pc as i64;
            self.prev_time = anchor_time;
            self.last_sig = Some(sig);
            self.chunk_index += 1;
            self.report.chunks_ok += 1;
            self.consume(FRAME_HEADER + payload_len as usize);
            return Ok(true);
        }
    }

    /// Decodes one record from the current v2 chunk payload.
    fn decode_record_v2(&mut self) -> Result<BranchRecord, TraceError> {
        let mut cur = Cursor::new(&self.payload[self.pay_off..]);
        let before = cur.remaining();
        let tagged = cur.get_varint()?;
        let dt = cur.get_varint()?;
        let consumed = before - cur.remaining();
        let taken = tagged & 1 == 1;
        let pc = self
            .prev_pc
            .checked_add(codec::zigzag_decode(tagged >> 1))
            .ok_or_else(|| TraceError::format("pc delta overflow"))?;
        if pc < 0 {
            return Err(TraceError::format("negative pc"));
        }
        let time = self
            .prev_time
            .checked_add(dt)
            .ok_or_else(|| TraceError::format("time overflow"))?;
        self.pay_off += consumed;
        self.prev_pc = pc;
        self.prev_time = time;
        self.remaining_in_chunk -= 1;
        if self.remaining_in_chunk == 0 && self.pay_off != self.payload.len() {
            return Err(TraceError::format("chunk payload length mismatch"));
        }
        Ok(BranchRecord::from_raw(pc as u64, taken, time))
    }

    fn next_record_v2(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        loop {
            if self.remaining_in_chunk == 0 && (self.done || !self.next_frame_v2()?) {
                return Ok(None);
            }
            match self.decode_record_v2() {
                Ok(rec) => {
                    self.last_time_seen = rec.time.get();
                    self.report.records_recovered += 1;
                    return Ok(Some(rec));
                }
                Err(e) if self.salvaging() => {
                    // A CRC-valid chunk that does not decode (writer bug or
                    // an astronomically unlikely collision): drop the rest
                    // of it and move on.
                    self.report.chunks_dropped += 1;
                    self.report.note(|| format!("undecodable chunk: {e}"));
                    self.remaining_in_chunk = 0;
                }
                Err(e) => {
                    self.failed = true;
                    return Err(e);
                }
            }
        }
    }

    /// Pulls one varint for the v1 path, buffering source bytes on demand.
    fn read_varint_v1(&mut self) -> Result<u64, TraceError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            if !self.ensure(1)? {
                return Err(TraceError::format("truncated varint"));
            }
            let byte = self.buf[self.start];
            self.consume(1);
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

    fn next_record_v1_inner(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        if self.remaining_in_chunk == 0 {
            if self.done {
                return Ok(None);
            }
            if !self.ensure(4)? {
                return Err(TraceError::format("truncated chunk header"));
            }
            let head = &self.buf[self.start..];
            let count = u32::from_le_bytes([head[0], head[1], head[2], head[3]]);
            self.consume(4);
            if count == 0 {
                if !self.ensure(8)? {
                    return Err(TraceError::format("truncated trailer"));
                }
                let head = &self.buf[self.start..];
                let total = u64::from_le_bytes([
                    head[0], head[1], head[2], head[3], head[4], head[5], head[6], head[7],
                ]);
                self.consume(8);
                self.total_instructions = Some(total);
                self.done = true;
                return Ok(None);
            }
            self.remaining_in_chunk = count;
        }
        let tagged = self.read_varint_v1()?;
        let taken = tagged & 1 == 1;
        let pc = self
            .prev_pc
            .checked_add(codec::zigzag_decode(tagged >> 1))
            .ok_or_else(|| TraceError::format("pc delta overflow"))?;
        if pc < 0 {
            return Err(TraceError::format("negative pc"));
        }
        let dt = self.read_varint_v1()?;
        let time = self
            .prev_time
            .checked_add(dt)
            .ok_or_else(|| TraceError::format("time overflow"))?;
        self.prev_pc = pc;
        self.prev_time = time;
        self.remaining_in_chunk -= 1;
        Ok(Some(BranchRecord::from_raw(pc as u64, taken, time)))
    }

    fn next_record_v1(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        match self.next_record_v1_inner() {
            Ok(Some(rec)) => {
                self.report.records_recovered += 1;
                self.report.chunks_ok = self.chunk_index;
                Ok(Some(rec))
            }
            Ok(None) => Ok(None),
            Err(e) if self.salvaging() => {
                // v1 has no checksums or sync markers: salvage degrades to
                // keeping the valid prefix.
                self.report.note(|| format!("unsalvageable v1 damage: {e}"));
                self.report.chunks_dropped += 1;
                self.done = true;
                self.remaining_in_chunk = 0;
                Ok(None)
            }
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn next_record(&mut self) -> Result<Option<BranchRecord>, TraceError> {
        bwsa_resilience::failpoint!("trace.decode_record");
        if self.version == VERSION_1 {
            let out = self.next_record_v1();
            if matches!(out, Ok(Some(_))) && self.remaining_in_chunk == 0 {
                self.chunk_index += 1;
                self.report.chunks_ok = self.chunk_index;
            }
            out
        } else {
            self.next_record_v2()
        }
    }
}

impl<R: Read> Iterator for StreamReader<R> {
    type Item = Result<BranchRecord, TraceError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let out = match self.next_record() {
            Ok(Some(rec)) => {
                self.obs.add("trace.records_read", 1);
                Some(Ok(rec))
            }
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        };
        self.sync_obs();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(n: u64) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| BranchRecord::from_raw(0x1000 + (i % 11) * 4, i % 3 == 0, (i + 1) * 2))
            .collect()
    }

    fn encode(recs: &[BranchRecord], chunk_records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "stream-test")
            .unwrap()
            .with_chunk_records(chunk_records);
        for r in recs {
            w.push(*r).unwrap();
        }
        w.finish(999).unwrap();
        buf
    }

    fn roundtrip(recs: &[BranchRecord]) -> (Vec<BranchRecord>, Option<u64>, String) {
        let buf = encode(recs, DEFAULT_CHUNK_RECORDS);
        let mut reader = StreamReader::new(&buf[..]).unwrap();
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        let total = reader.total_instructions();
        let name = reader.name().to_owned();
        assert!(reader.salvage_report().clean());
        (out, total, name)
    }

    #[test]
    fn empty_stream_roundtrips() {
        let (out, total, name) = roundtrip(&[]);
        assert!(out.is_empty());
        assert_eq!(total, Some(999));
        assert_eq!(name, "stream-test");
    }

    #[test]
    fn small_stream_roundtrips() {
        let recs = records(100);
        let (out, total, _) = roundtrip(&recs);
        assert_eq!(out, recs);
        assert_eq!(total, Some(999));
    }

    #[test]
    fn multi_chunk_stream_roundtrips() {
        let recs = records(3 * DEFAULT_CHUNK_RECORDS as u64 + 17);
        let (out, total, _) = roundtrip(&recs);
        assert_eq!(out.len(), recs.len());
        assert_eq!(out, recs);
        assert_eq!(total, Some(999));
    }

    #[test]
    fn encoding_is_deterministic() {
        let recs = records(1000);
        assert_eq!(encode(&recs, 64), encode(&recs, 64));
    }

    #[test]
    fn legacy_v1_streams_still_read() {
        let recs = records(2 * DEFAULT_CHUNK_RECORDS as u64 + 5);
        let mut buf = Vec::new();
        let mut w = StreamWriter::new_v1(&mut buf, "old").unwrap();
        for r in &recs {
            w.push(*r).unwrap();
        }
        w.finish(42).unwrap();
        let mut reader = StreamReader::new(&buf[..]).unwrap();
        assert_eq!(reader.version(), 1);
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(out, recs);
        assert_eq!(reader.total_instructions(), Some(42));
    }

    #[test]
    fn writer_rejects_time_travel() {
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "t").unwrap();
        w.push(BranchRecord::from_raw(0x4, true, 10)).unwrap();
        let err = w.push(BranchRecord::from_raw(0x8, true, 5)).unwrap_err();
        assert!(matches!(err, TraceError::OutOfOrder { .. }));
    }

    #[test]
    fn strict_truncation_is_an_error() {
        let recs = records(100);
        let mut buf = encode(&recs, DEFAULT_CHUNK_RECORDS);
        buf.truncate(buf.len() - 4);
        let mut reader = StreamReader::new(&buf[..]).unwrap();
        let results: Vec<_> = reader.by_ref().collect();
        assert!(results.last().unwrap().is_err());
        assert!(reader.total_instructions().is_none());
    }

    #[test]
    fn salvage_truncation_keeps_whole_chunks() {
        let recs = records(256);
        let mut buf = encode(&recs, 64);
        // Cut into the trailer frame: every record chunk stays intact.
        buf.truncate(buf.len() - 4);
        let mut reader = StreamReader::with_recovery(&buf[..], RecoveryPolicy::Salvage).unwrap();
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(out, recs);
        assert_eq!(reader.total_instructions(), None);
        let report = reader.salvage_report();
        assert_eq!(report.chunks_ok, 4);
        assert!(report.first_error.is_some());
    }

    #[test]
    fn strict_detects_payload_bit_flip() {
        let recs = records(300);
        let mut buf = encode(&recs, 64);
        // Flip a bit comfortably inside the second chunk's payload.
        let pos = buf.len() / 2;
        buf[pos] ^= 0x10;
        let mut reader = StreamReader::new(&buf[..]).unwrap();
        let err = reader
            .by_ref()
            .find_map(|r| r.err())
            .expect("corruption must surface");
        assert!(matches!(err, TraceError::Corrupt { .. }), "{err}");
        assert!(reader.next().is_none(), "iterator fuses after an error");
    }

    #[test]
    fn salvage_drops_only_the_damaged_chunk() {
        let recs = records(64 * 5);
        let buf = encode(&recs, 64);
        // Find the third chunk's frame and flip a payload bit.
        let mut corrupt = buf.clone();
        let chunk_starts: Vec<usize> = sync_positions(&buf);
        assert!(chunk_starts.len() >= 4);
        corrupt[chunk_starts[2] + FRAME_HEADER + 3] ^= 0x04;
        let mut reader =
            StreamReader::with_recovery(&corrupt[..], RecoveryPolicy::Salvage).unwrap();
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        // Chunks 0,1,3,4 survive: 4 * 64 records.
        let mut expected: Vec<BranchRecord> = recs[..128].to_vec();
        expected.extend_from_slice(&recs[192..]);
        assert_eq!(out, expected);
        assert_eq!(reader.total_instructions(), Some(999));
        let report = reader.salvage_report();
        assert_eq!(report.chunks_ok, 4);
        assert_eq!(report.chunks_dropped, 1);
        assert_eq!(report.records_recovered, 256);
        assert!(report.first_error.as_deref().unwrap().contains("checksum"));
    }

    #[test]
    fn observer_counts_records_chunks_and_crc_failures() {
        let recs = records(64 * 5);
        let buf = encode(&recs, 64);
        let mut corrupt = buf.clone();
        let chunk_starts: Vec<usize> = sync_positions(&buf);
        corrupt[chunk_starts[2] + FRAME_HEADER + 3] ^= 0x04;
        let obs = Obs::recording();
        let mut reader = StreamReader::with_recovery(&corrupt[..], RecoveryPolicy::Salvage)
            .unwrap()
            .with_observer(obs.clone());
        let observed: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();

        // Observation does not change what is decoded.
        let mut plain = StreamReader::with_recovery(&corrupt[..], RecoveryPolicy::Salvage).unwrap();
        let expected: Vec<BranchRecord> = plain.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(observed, expected);

        let m = obs.snapshot().unwrap();
        assert_eq!(m.counter("trace.records_read"), 256);
        assert_eq!(m.counter("trace.chunks_ok"), 4);
        assert_eq!(m.counter("trace.chunks_dropped"), 1);
        assert_eq!(m.counter("trace.crc_failures"), 1);
        assert_eq!(reader.crc_failures(), 1);
    }

    #[test]
    fn salvage_drops_duplicated_chunk() {
        let recs = records(64 * 3);
        let buf = encode(&recs, 64);
        let starts = sync_positions(&buf);
        assert!(starts.len() >= 3);
        // Duplicate the second chunk in place.
        let second = buf[starts[1]..starts[2]].to_vec();
        let mut dup = buf[..starts[2]].to_vec();
        dup.extend_from_slice(&second);
        dup.extend_from_slice(&buf[starts[2]..]);
        let mut reader = StreamReader::with_recovery(&dup[..], RecoveryPolicy::Salvage).unwrap();
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert_eq!(out, recs, "duplicate chunk must not duplicate records");
        let report = reader.salvage_report();
        assert_eq!(report.chunks_dropped, 1);
        assert!(report
            .first_error
            .as_deref()
            .unwrap()
            .contains("duplicated"));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(StreamReader::new(&b"NOPE\x02\x00"[..]).is_err());
    }

    #[test]
    fn unknown_version_is_rejected() {
        let mut buf = Vec::new();
        StreamWriter::new(&mut buf, "v").unwrap().finish(0).unwrap();
        buf[4] = 9;
        assert!(StreamReader::new(&buf[..])
            .unwrap_err()
            .to_string()
            .contains("version"));
    }

    #[test]
    fn iterator_stops_after_error() {
        let mut buf = Vec::new();
        let w = StreamWriter::new(&mut buf, "t").unwrap();
        w.finish(0).unwrap();
        // Corrupt the end frame's checksum.
        let pos = buf.len() - 9;
        buf[pos] ^= 0xff;
        let mut reader = StreamReader::new(&buf[..]).unwrap();
        assert!(reader.next().unwrap().is_err());
        assert!(reader.next().is_none(), "iterator fuses after an error");
    }

    #[test]
    fn matches_whole_buffer_format_content() {
        use crate::TraceBuilder;
        let recs = records(500);
        let mut builder = TraceBuilder::new("x");
        for r in &recs {
            builder.push(*r);
        }
        let trace = builder.finish();
        let (out, _, _) = roundtrip(&recs);
        assert_eq!(out, trace.records());
    }

    #[test]
    fn v1_salvage_recovers_valid_prefix() {
        let recs = records(2000);
        let mut buf = Vec::new();
        let mut w = StreamWriter::new_v1(&mut buf, "old").unwrap();
        for r in &recs {
            w.push(*r).unwrap();
        }
        w.finish(1).unwrap();
        buf.truncate(buf.len() - 40);
        let mut reader = StreamReader::with_recovery(&buf[..], RecoveryPolicy::Salvage).unwrap();
        let out: Vec<BranchRecord> = reader.by_ref().map(|r| r.unwrap()).collect();
        assert!(!out.is_empty() && out.len() < recs.len());
        assert_eq!(out[..], recs[..out.len()], "prefix only, in order");
        assert!(reader.total_instructions().is_none());
        assert!(!reader.salvage_report().clean());
    }

    /// Byte offsets of every frame sync marker in a v2 stream body.
    fn sync_positions(buf: &[u8]) -> Vec<usize> {
        frame_spans(buf).unwrap().iter().map(|s| s.offset).collect()
    }

    #[test]
    fn frame_spans_tile_the_body() {
        let buf = encode(&records(200), 64);
        let spans = frame_spans(&buf).unwrap();
        assert_eq!(spans.len(), 5, "four data frames plus the end frame");
        assert_eq!(spans[0].offset, body_offset(&buf).unwrap());
        for pair in spans.windows(2) {
            assert_eq!(pair[0].offset + pair[0].len, pair[1].offset);
        }
        let last = spans.last().unwrap();
        assert_eq!(last.records, 0);
        assert_eq!(last.offset + last.len, buf.len());
        assert_eq!(spans.iter().map(|s| u64::from(s.records)).sum::<u64>(), 200);
    }
}
