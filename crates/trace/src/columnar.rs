//! `BWSS3` — the columnar block trace format, built for cold-ingest
//! throughput.
//!
//! `BWSS2` ([`crate::stream`]) interleaves every record's fields and pays
//! a per-record cost on ingest: two varint decodes, a hash-map intern,
//! and a time-ordering branch for every dynamic branch. `BWSS3` stores
//! the same records as **structure-of-arrays column blocks** so a reader
//! can decode a whole block into flat scratch buffers, validate it with
//! a handful of slice scans the autovectorizer handles, and construct
//! the [`Trace`] in bulk — interning each static branch **once** (from
//! the block's new-pc column or the footer directory) instead of hashing
//! once per record.
//!
//! # Wire format
//!
//! ```text
//! header : magic "BWS3", version u16 LE (1), name (u32 LE len + UTF-8)
//! block  : sync         4 bytes  A7 3B D9 4C
//!          count        u32 LE   records in the block (>0)
//!          new_pcs      u32 LE   static branches first seen in this block
//!          pcs_len      u32 LE   byte length of the new-pc column
//!          ids_len      u32 LE   byte length of the id column
//!          times_len    u32 LE   byte length of the time column
//!          anchor_time  u64 LE   absolute time of the block's first record
//!          crc32        u32 LE   CRC32 over the six fields above ‖ payload
//!          payload      new-pc column ‖ id column ‖ taken bitmap ‖ time column
//! footer : magic "BW3F"
//!          record_count        u64 LE
//!          total_instructions  u64 LE
//!          branch_count u32 LE, then the directory: every static pc in
//!              id-assignment order as zigzag-delta varints
//!          block_count  u32 LE, then per block: offset u64 LE (of the
//!              sync marker), count u32 LE
//! trailer: footer_len u32 LE, crc32 u32 LE over the footer bytes,
//!          magic "3SWB"
//! ```
//!
//! Column encodings:
//!
//! * **new-pc column** — the pcs whose [`BranchId`]s are assigned in this
//!   block, in assignment order, as `zigzag(pc - prev_pc)` varints
//!   (`prev_pc` starts at 0 per block). Replaying these columns in block
//!   order rebuilds the id → pc directory, so a torn-tail prefix is
//!   fully decodable without the footer.
//! * **id column** — `zigzag(id - prev_id)` varints with `prev_id` reset
//!   to 0 at each block start, so blocks decode independently.
//! * **taken bitmap** — `ceil(count / 8)` bytes, LSB-first.
//! * **time column** — unsigned `time - prev_time` varints with
//!   `prev_time` starting at `anchor_time` (the first delta is 0), which
//!   makes intra-block time order a structural invariant.
//!
//! # Independence, salvage, and the footer
//!
//! Every block carries its own CRC, record count, and absolute time
//! anchor, and its columns are self-delimiting — blocks are
//! independently decodable. The footer's block index locates every
//! block without a scan, and its directory makes the id → pc mapping
//! available without replaying earlier blocks,
//! which is what permits *skipping* a corrupt block under
//! [`RecoveryPolicy::Salvage`]. Without a valid footer (a torn tail),
//! salvage keeps the valid block prefix instead: a damaged block also
//! loses the new-pc assignments later blocks depend on, so the prefix
//! is the sound recovery boundary. [`RecoveryPolicy::Strict`] requires
//! an intact footer. After a dropped block the recovered records'
//! branches are numbered by first appearance ([`FirstSeen`]), so a
//! salvaged file reads exactly like a clean file of the surviving
//! records.
//!
//! # Example
//!
//! ```
//! use bwsa_trace::columnar::{read_columnar, ColumnarWriter};
//! use bwsa_trace::stream::RecoveryPolicy;
//! use bwsa_trace::BranchRecord;
//!
//! # fn main() -> Result<(), bwsa_trace::TraceError> {
//! let mut buf = Vec::new();
//! let mut w = ColumnarWriter::new(&mut buf, "cold")?;
//! for i in 0..10_000u64 {
//!     w.push(BranchRecord::from_raw(0x400 + (i % 7) * 4, i % 3 == 0, i + 1))?;
//! }
//! w.finish(123_456)?;
//!
//! let (trace, report) = read_columnar(&buf, RecoveryPolicy::Strict)?;
//! assert_eq!(trace.len(), 10_000);
//! assert_eq!(trace.meta().total_instructions, 123_456);
//! assert!(report.clean());
//! # Ok(())
//! # }
//! ```

use crate::codec::{self, Crc32, Cursor};
use crate::stream::{RecoveryPolicy, SalvageReport};
use crate::{
    BranchId, BranchRecord, BranchTable, Direction, InstrCount, Pc, Trace, TraceError, TraceMeta,
};
use std::collections::HashMap;
use std::io::Write;

/// File magic of the columnar format.
pub(crate) const MAGIC: &[u8; 4] = b"BWS3";
/// Current columnar format version.
const VERSION: u16 = 1;
/// Block sync marker, distinct from the `BWSS2` chunk marker.
const SYNC: [u8; 4] = [0xA7, 0x3B, 0xD9, 0x4C];
/// Footer magic (start of the footer payload).
const FOOTER_MAGIC: &[u8; 4] = b"BW3F";
/// Trailing magic, the last four bytes of every finished file.
const TRAILER_MAGIC: &[u8; 4] = b"3SWB";
/// Bytes in a block header: sync + 5×u32 + anchor_time + crc.
const BLOCK_HEADER: usize = 4 + 5 * 4 + 8 + 4;
/// Bytes in the trailer: footer_len + crc + magic.
const TRAILER: usize = 4 + 4 + 4;
/// Records per block by default (same granularity as `BWSS2` chunks).
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;
/// A reader rejects blocks claiming more records than this; together
/// with the payload bounds checks it keeps corrupt counts from driving
/// large allocations.
const MAX_BLOCK_RECORDS: u32 = 1 << 22;
/// A reader rejects column sections longer than this.
const MAX_SECTION: u32 = 1 << 24;

/// Decodes a whole `BWSS3` buffer into a [`Trace`].
///
/// Convenience wrapper over [`ColumnarFile::parse`] +
/// [`ColumnarFile::decode`]; see the latter for the policy semantics.
///
/// # Errors
///
/// Returns [`TraceError::Format`] for a malformed header (or, under
/// [`RecoveryPolicy::Strict`], a torn tail) and [`TraceError::Corrupt`]
/// for a damaged block in strict mode.
pub fn read_columnar(
    bytes: &[u8],
    policy: RecoveryPolicy,
) -> Result<(Trace, SalvageReport), TraceError> {
    ColumnarFile::parse(bytes)?.decode(policy)
}

/// Incremental writer of the `BWSS3` columnar format.
///
/// Records arrive row-wise through [`ColumnarWriter::push`] and are
/// transposed into column blocks; [`ColumnarWriter::finish`] flushes the
/// final block and writes the directory/index footer. Dropping the
/// writer without finishing produces a footerless (torn-tail) file from
/// which a [`RecoveryPolicy::Salvage`] reader still recovers the
/// complete block prefix.
#[derive(Debug)]
pub struct ColumnarWriter<W: Write> {
    sink: W,
    /// Bytes written so far — block offsets for the footer index.
    offset: u64,
    block_records: usize,
    /// pc → id assignment, mirrored by `pcs` in id order.
    by_pc: HashMap<u64, u32>,
    pcs: Vec<u64>,
    /// Current block's columns.
    ids: Vec<u32>,
    taken: Vec<bool>,
    times: Vec<u64>,
    new_pcs: Vec<u64>,
    /// Footer index entries: (offset, record count).
    index: Vec<(u64, u32)>,
    records: u64,
    last_time: u64,
    /// Encode scratch, reused across blocks.
    buf: Vec<u8>,
}

impl<W: Write> ColumnarWriter<W> {
    /// Writes a `BWSS3` file header.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn new(mut sink: W, name: &str) -> Result<Self, TraceError> {
        let mut header = Vec::with_capacity(10 + name.len());
        header.extend_from_slice(MAGIC);
        header.extend_from_slice(&VERSION.to_le_bytes());
        codec::put_u32_le(&mut header, name.len() as u32);
        header.extend_from_slice(name.as_bytes());
        sink.write_all(&header)?;
        Ok(ColumnarWriter {
            sink,
            offset: header.len() as u64,
            block_records: DEFAULT_BLOCK_RECORDS,
            by_pc: HashMap::new(),
            pcs: Vec::new(),
            ids: Vec::new(),
            taken: Vec::new(),
            times: Vec::new(),
            new_pcs: Vec::new(),
            index: Vec::new(),
            records: 0,
            last_time: 0,
            buf: Vec::new(),
        })
    }

    /// Overrides the records-per-block threshold (minimum 1). Mostly for
    /// tests that want many small blocks.
    #[must_use]
    pub fn with_block_records(mut self, n: usize) -> Self {
        self.block_records = n.max(1);
        self
    }

    /// Appends a record, flushing a block when the threshold is reached.
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
        let pc = record.pc.addr();
        let id = match self.by_pc.get(&pc) {
            Some(&id) => id,
            None => {
                let id = u32::try_from(self.pcs.len())
                    .map_err(|_| TraceError::format("more than u32::MAX static branches"))?;
                self.by_pc.insert(pc, id);
                self.pcs.push(pc);
                self.new_pcs.push(pc);
                id
            }
        };
        self.ids.push(id);
        self.taken.push(record.direction.is_taken());
        self.times.push(time);
        self.last_time = time;
        self.records += 1;
        if self.ids.len() >= self.block_records {
            self.flush_block()?;
        }
        Ok(())
    }

    fn flush_block(&mut self) -> Result<(), TraceError> {
        if self.ids.is_empty() {
            return Ok(());
        }
        let count = self.ids.len() as u32;
        let anchor_time = self.times[0];
        self.buf.clear();
        // New-pc column.
        let mut prev_pc = 0i64;
        for &pc in &self.new_pcs {
            codec::put_varint(
                &mut self.buf,
                codec::zigzag_encode((pc as i64).wrapping_sub(prev_pc)),
            );
            prev_pc = pc as i64;
        }
        let pcs_len = self.buf.len();
        // Id column, delta state reset per block.
        let mut prev_id = 0i64;
        for &id in &self.ids {
            codec::put_varint(&mut self.buf, codec::zigzag_encode(i64::from(id) - prev_id));
            prev_id = i64::from(id);
        }
        let ids_len = self.buf.len() - pcs_len;
        // Taken bitmap, LSB-first.
        let bitmap_start = self.buf.len();
        self.buf
            .resize(bitmap_start + self.ids.len().div_ceil(8), 0);
        for (i, &taken) in self.taken.iter().enumerate() {
            self.buf[bitmap_start + i / 8] |= u8::from(taken) << (i % 8);
        }
        // Time column: unsigned deltas from the anchor.
        let times_start = self.buf.len();
        let mut prev_time = anchor_time;
        for &time in &self.times {
            codec::put_varint(&mut self.buf, time - prev_time);
            prev_time = time;
        }
        let times_len = self.buf.len() - times_start;

        let mut hashed = Vec::with_capacity(BLOCK_HEADER - 8);
        codec::put_u32_le(&mut hashed, count);
        codec::put_u32_le(&mut hashed, self.new_pcs.len() as u32);
        codec::put_u32_le(&mut hashed, pcs_len as u32);
        codec::put_u32_le(&mut hashed, ids_len as u32);
        codec::put_u32_le(&mut hashed, times_len as u32);
        codec::put_u64_le(&mut hashed, anchor_time);
        let crc = Crc32::new().update(&hashed).update(&self.buf).finish();
        self.sink.write_all(&SYNC)?;
        self.sink.write_all(&hashed)?;
        self.sink.write_all(&crc.to_le_bytes())?;
        self.sink.write_all(&self.buf)?;
        self.index.push((self.offset, count));
        self.offset += (BLOCK_HEADER + self.buf.len()) as u64;
        self.ids.clear();
        self.taken.clear();
        self.times.clear();
        self.new_pcs.clear();
        Ok(())
    }

    /// Flushes the final block and writes the directory/index footer.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Io`] on write failure.
    pub fn finish(mut self, total_instructions: u64) -> Result<(), TraceError> {
        self.flush_block()?;
        let mut footer = Vec::new();
        footer.extend_from_slice(FOOTER_MAGIC);
        codec::put_u64_le(&mut footer, self.records);
        codec::put_u64_le(&mut footer, total_instructions);
        codec::put_u32_le(&mut footer, self.pcs.len() as u32);
        let mut prev_pc = 0i64;
        for &pc in &self.pcs {
            codec::put_varint(
                &mut footer,
                codec::zigzag_encode((pc as i64).wrapping_sub(prev_pc)),
            );
            prev_pc = pc as i64;
        }
        codec::put_u32_le(&mut footer, self.index.len() as u32);
        for &(offset, count) in &self.index {
            codec::put_u64_le(&mut footer, offset);
            codec::put_u32_le(&mut footer, count);
        }
        let crc = codec::crc32(&footer);
        self.sink.write_all(&footer)?;
        self.sink.write_all(&(footer.len() as u32).to_le_bytes())?;
        self.sink.write_all(&crc.to_le_bytes())?;
        self.sink.write_all(TRAILER_MAGIC)?;
        self.sink.flush()?;
        Ok(())
    }
}

/// Encodes a whole in-memory trace as `BWSS3`.
///
/// # Errors
///
/// Returns [`TraceError::Io`] on write failure.
pub fn write_columnar<W: Write>(trace: &Trace, sink: W) -> Result<(), TraceError> {
    let mut w = ColumnarWriter::new(sink, &trace.meta().name)?;
    for record in trace.records() {
        w.push(*record)?;
    }
    w.finish(trace.meta().total_instructions)
}

/// The parsed footer of a finished `BWSS3` file: the id → pc directory
/// plus the block index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Footer {
    /// Total records across every block.
    pub record_count: u64,
    /// The producing run's instruction count (the `BWSS2` trailer value).
    pub total_instructions: u64,
    /// Every static pc in id-assignment order.
    pub pcs: Vec<u64>,
    /// Per-block (byte offset of the sync marker, record count).
    pub blocks: Vec<(u64, u32)>,
}

/// Strictly validates the trailer + footer region; any inconsistency
/// yields `None` (a torn tail), never an error.
fn parse_footer(bytes: &[u8], body_start: usize) -> Option<Footer> {
    let len = bytes.len();
    if len < body_start + TRAILER || &bytes[len - 4..] != TRAILER_MAGIC {
        return None;
    }
    let footer_len = u32::from_le_bytes(bytes[len - 12..len - 8].try_into().ok()?) as usize;
    let crc = u32::from_le_bytes(bytes[len - 8..len - 4].try_into().ok()?);
    let start = (len - TRAILER).checked_sub(footer_len)?;
    if start < body_start {
        return None;
    }
    let span = &bytes[start..len - TRAILER];
    if codec::crc32(span) != crc {
        return None;
    }
    let mut cur = Cursor::new(span);
    if cur.take(4).ok()? != FOOTER_MAGIC {
        return None;
    }
    let record_count = cur.get_u64_le().ok()?;
    let total_instructions = cur.get_u64_le().ok()?;
    let branch_count = cur.get_u32_le().ok()? as usize;
    if branch_count > cur.remaining() {
        return None; // every directory pc takes at least one byte
    }
    let mut pcs = Vec::with_capacity(branch_count);
    let mut prev = 0i64;
    for _ in 0..branch_count {
        let delta = codec::zigzag_decode(cur.get_varint().ok()?);
        let pc = prev.wrapping_add(delta);
        pcs.push(pc as u64);
        prev = pc;
    }
    let block_count = cur.get_u32_le().ok()? as usize;
    if block_count.checked_mul(12)? != cur.remaining() {
        return None;
    }
    let mut blocks = Vec::with_capacity(block_count);
    let mut min_offset = body_start as u64;
    for _ in 0..block_count {
        let offset = cur.get_u64_le().ok()?;
        let count = cur.get_u32_le().ok()?;
        if offset < min_offset || offset >= len as u64 || count == 0 {
            return None;
        }
        min_offset = offset + 1;
        blocks.push((offset, count));
    }
    Some(Footer {
        record_count,
        total_instructions,
        pcs,
        blocks,
    })
}

/// A parsed (but not yet decoded) `BWSS3` file over borrowed bytes.
///
/// Parsing reads only the header and the trailing footer; block payloads
/// stay untouched until decoded, so over an mmap this is a zero-copy
/// open that faults in a handful of pages.
#[derive(Debug)]
pub struct ColumnarFile<'a> {
    bytes: &'a [u8],
    name: String,
    body_start: usize,
    footer: Option<Footer>,
}

impl<'a> ColumnarFile<'a> {
    /// Parses the header and (when present and intact) the footer.
    ///
    /// A missing or damaged footer is not an error here — the file is
    /// treated as torn and [`ColumnarFile::footer`] returns `None`; the
    /// header itself is always strict.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] when the header is malformed.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, TraceError> {
        let mut cur = Cursor::new(bytes);
        if cur.take(4)? != MAGIC {
            return Err(TraceError::format_at("bad magic (expected \"BWS3\")", 0));
        }
        let version = cur.get_u16_le()?;
        if version != VERSION {
            return Err(TraceError::format(format!(
                "unsupported columnar version {version} (expected {VERSION})"
            )));
        }
        let name_len = cur.get_u32_le()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec())
            .map_err(|e| TraceError::format(format!("name is not utf-8: {e}")))?;
        let body_start = bytes.len() - cur.remaining();
        let footer = parse_footer(bytes, body_start);
        Ok(ColumnarFile {
            bytes,
            name,
            body_start,
            footer,
        })
    }

    /// The trace name from the header.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parsed footer, or `None` for a torn-tail file.
    pub fn footer(&self) -> Option<&Footer> {
        self.footer.as_ref()
    }

    /// Decodes the whole file into a [`Trace`] under `policy`, with the
    /// salvage rules of [`ColumnarFile::walk`].
    ///
    /// When a block is dropped, the recovered records' branches are
    /// numbered by first appearance, so a branch seen only in a dropped
    /// block is gone and the trace equals one written from the surviving
    /// records alone. An undamaged file keeps the writer's numbering,
    /// which is first-appearance order too.
    ///
    /// # Errors
    ///
    /// Those of [`ColumnarFile::walk`].
    pub fn decode(&self, policy: RecoveryPolicy) -> Result<(Trace, SalvageReport), TraceError> {
        let mut ids: Vec<BranchId> = Vec::new();
        let mut records: Vec<BranchRecord> = Vec::new();
        if let Some(footer) = &self.footer {
            // A CRC-valid footer cannot honestly promise more records
            // than the payload could hold; cap the reserve regardless.
            let cap = footer.record_count.min(self.bytes.len() as u64) as usize;
            ids.reserve(cap);
            records.reserve(cap);
        }
        let mut last_time = 0u64;
        let (report, mut table) = self.walk(
            policy,
            |_| {},
            |view| {
                last_time = view.times.last().copied().unwrap_or(last_time);
                // The three column slices are equal length by construction,
                // so the zipped loops compile without bounds checks and
                // autovectorize (see DESIGN.md §16).
                ids.extend(view.ids.iter().map(|&id| BranchId::new(id)));
                records.extend(view.ids.iter().zip(view.taken).zip(view.times).map(
                    |((&id, &taken), &time)| {
                        BranchRecord::new(
                            Pc::new(view.pcs[id as usize]),
                            Direction::from_taken(taken),
                            InstrCount::new(time),
                        )
                    },
                ));
            },
        )?;
        if report.chunks_dropped > 0 {
            let mut first_seen = FirstSeen::default();
            for id in &mut ids {
                *id = BranchId::new(first_seen.id(id.as_u32()));
            }
            let pcs = first_seen
                .order()
                .iter()
                .map(|&old| table.pc_of(BranchId::new(old)));
            table = BranchTable::from_pcs(pcs)?;
        }
        let meta = TraceMeta {
            name: self.name.clone(),
            total_instructions: self
                .footer
                .as_ref()
                .map_or(last_time, |f| f.total_instructions),
        };
        Ok((Trace::from_parts(meta, table, ids, records)?, report))
    }

    /// Decodes every block under `policy` and hands each one that
    /// survives to `sink`, in file order: the one block walk behind
    /// [`ColumnarFile::decode`] and the streaming analysis, so both
    /// recover the same records. After each block, kept or dropped,
    /// `read` is told [`BlockDecoder::reach`], so a caller can release
    /// the bytes behind it.
    ///
    /// With a valid footer, salvage skips damaged and out-of-order blocks
    /// (the directory survives in the footer); without one, salvage keeps
    /// the valid block prefix. Strict requires an intact footer, fails on
    /// the first inconsistency, and holds the blocks to the footer's
    /// record count. Returns the salvage report and the id → pc
    /// directory, whose pcs must be distinct.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] (strict) on a damaged block, or
    /// [`TraceError::Format`] for structural damage or a duplicated
    /// directory pc.
    pub fn walk(
        &self,
        policy: RecoveryPolicy,
        mut read: impl FnMut(usize),
        mut sink: impl FnMut(&BlockView<'_>),
    ) -> Result<(SalvageReport, BranchTable), TraceError> {
        let mut walk = self.blocks(policy)?;
        while let Some(view) = walk.next(&mut read)? {
            sink(&view);
        }
        walk.finish()
    }

    /// [`ColumnarFile::walk`] a block at a time: the blocks that survive
    /// `policy`, pulled from the returned [`Walk`].
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a torn file under a strict
    /// policy.
    pub fn blocks(&self, policy: RecoveryPolicy) -> Result<Walk<'a>, TraceError> {
        if policy == RecoveryPolicy::Strict && self.footer.is_none() {
            return Err(TraceError::format(
                "torn columnar file: footer missing or corrupt (retry with salvage)",
            ));
        }
        Ok(Walk {
            policy,
            records: self.footer.as_ref().map(|f| f.record_count),
            decoder: BlockDecoder::new(self),
            report: SalvageReport::default(),
            last_time: 0,
        })
    }
}

/// A [`ColumnarFile::walk`] pulled a block at a time, from
/// [`ColumnarFile::blocks`].
#[derive(Debug)]
pub struct Walk<'a> {
    policy: RecoveryPolicy,
    /// The footer's record count, when intact.
    records: Option<u64>,
    decoder: BlockDecoder<'a>,
    report: SalvageReport,
    last_time: u64,
}

impl<'a> Walk<'a> {
    /// The next block that survives, or `None` at the end. `read` is told
    /// the decoder's byte offset ([`BlockDecoder::reach`]) after each
    /// block, kept or dropped.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] (strict) on a damaged block.
    pub fn next(
        &mut self,
        mut read: impl FnMut(usize),
    ) -> Result<Option<BlockView<'_>>, TraceError> {
        loop {
            let block_no = self.decoder.blocks_seen();
            let (kept, more) = match self.decoder.next_block() {
                Ok(None) => return Ok(None),
                Ok(Some(view)) => {
                    if view
                        .times
                        .first()
                        .is_some_and(|&first| first < self.last_time)
                    {
                        let e = block_corrupt(block_no, "out-of-order block");
                        absorb(self.policy, &mut self.report, e)?;
                        (false, true)
                    } else {
                        self.last_time = view.times.last().copied().unwrap_or(self.last_time);
                        self.report.chunks_ok += 1;
                        self.report.records_recovered += view.ids.len() as u64;
                        (true, true)
                    }
                }
                Err(e) => {
                    absorb(self.policy, &mut self.report, e)?;
                    (false, self.decoder.can_continue())
                }
            };
            read(self.decoder.reach());
            if kept {
                return Ok(Some(self.decoder.view()));
            }
            if !more {
                return Ok(None);
            }
        }
    }

    /// What the walk found, and the id → pc directory, once
    /// [`Walk::next`] has returned `None`.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Format`] for a duplicated directory pc, or
    /// (strict) when the blocks held fewer records than the footer says.
    pub fn finish(&self) -> Result<(SalvageReport, BranchTable), TraceError> {
        let pcs = self.decoder.directory().iter();
        let table = BranchTable::from_pcs(pcs.map(|&pc| Pc::new(pc)))?;
        if let Some(records) = self.records {
            if self.policy == RecoveryPolicy::Strict && self.report.records_recovered != records {
                return Err(TraceError::format(format!(
                    "footer promises {records} records, blocks held {}",
                    self.report.records_recovered
                )));
            }
        }
        Ok((self.report.clone(), table))
    }
}

/// Salvage bookkeeping for one damaged block; strict mode re-raises.
fn absorb(
    policy: RecoveryPolicy,
    report: &mut SalvageReport,
    error: TraceError,
) -> Result<(), TraceError> {
    if policy == RecoveryPolicy::Strict {
        return Err(error);
    }
    report.chunks_dropped += 1;
    if report.first_error.is_none() {
        report.first_error = Some(error.to_string());
    }
    Ok(())
}

fn block_corrupt(block: u64, reason: impl Into<String>) -> TraceError {
    TraceError::Corrupt {
        chunk: block,
        reason: reason.into(),
    }
}

/// Directory ids renumbered in order of first appearance — how BWSS3
/// ingest numbers the branches of records that survive a dropped block.
/// On an undamaged file it is the identity, since the writer assigns ids
/// in first-appearance order.
#[derive(Debug, Default)]
pub struct FirstSeen {
    /// `new[old]`, or [`FirstSeen::UNSEEN`].
    new: Vec<u32>,
    /// The old ids in new-id order.
    order: Vec<u32>,
}

impl FirstSeen {
    const UNSEEN: u32 = u32::MAX;

    /// The new id of directory id `old`, assigning the next one on first
    /// sight.
    #[inline]
    pub fn id(&mut self, old: u32) -> u32 {
        let i = old as usize;
        if i >= self.new.len() {
            self.new.resize(i + 1, Self::UNSEEN);
        }
        if self.new[i] == Self::UNSEEN {
            self.new[i] = self.order.len() as u32;
            self.order.push(old);
        }
        self.new[i]
    }

    /// The directory ids seen so far, in new-id order.
    pub fn order(&self) -> &[u32] {
        &self.order
    }
}

/// One decoded block, borrowed from a [`BlockDecoder`]'s reusable
/// scratch — the zero-materialisation view streaming consumers iterate.
#[derive(Debug)]
pub struct BlockView<'a> {
    /// Interned id of each record, parallel to `taken` and `times`.
    pub ids: &'a [u32],
    /// Resolved direction of each record.
    pub taken: &'a [bool],
    /// Timestamp of each record.
    pub times: &'a [u64],
    /// The id → pc directory as known after this block; index with an
    /// entry of `ids` (always in range once the block decodes).
    pub pcs: &'a [u64],
}

/// Streaming block-at-a-time decoder over a [`ColumnarFile`], reusing
/// one set of SoA scratch buffers for every block: the constant-memory
/// ingest path, with no per-record struct materialised on the heap.
///
/// With a footer the decoder walks the block index; without one it
/// scans sequentially and stops at the first damage (the torn-tail
/// prefix rule).
#[derive(Debug)]
pub struct BlockDecoder<'a> {
    bytes: &'a [u8],
    /// Footer block index, when intact.
    index: Option<Vec<(u64, u32)>>,
    /// Position in `index`, when present.
    next_index: usize,
    /// Byte offset of the next block (footerless scan).
    offset: usize,
    /// [`BlockDecoder::reach`].
    reach: usize,
    /// id → pc directory: footer copy, or grown from new-pc columns.
    pcs: Vec<u64>,
    /// Whether the directory is complete up front (footer present).
    directory_fixed: bool,
    blocks_seen: u64,
    stopped: bool,
    /// Reusable SoA scratch.
    ids: Vec<u32>,
    taken: Vec<bool>,
    times: Vec<u64>,
}

impl<'a> BlockDecoder<'a> {
    /// Starts a decoder at the first block.
    pub fn new(file: &ColumnarFile<'a>) -> Self {
        let (index, pcs) = match &file.footer {
            Some(f) => (Some(f.blocks.clone()), f.pcs.clone()),
            None => (None, Vec::new()),
        };
        BlockDecoder {
            bytes: file.bytes,
            directory_fixed: index.is_some(),
            index,
            next_index: 0,
            offset: file.body_start,
            reach: file.body_start,
            pcs,
            blocks_seen: 0,
            stopped: false,
            ids: Vec::new(),
            taken: Vec::new(),
            times: Vec::new(),
        }
    }

    /// Number of blocks inspected so far (decoded or damaged).
    pub fn blocks_seen(&self) -> u64 {
        self.blocks_seen
    }

    /// The byte offset the blocks read so far reach: one past the last
    /// decoded block's payload, or the start of a damaged block, and never
    /// less than before. It stays within the file.
    pub fn reach(&self) -> usize {
        self.reach
    }

    /// The id → pc directory as currently known.
    pub fn directory(&self) -> &[u64] {
        &self.pcs
    }

    /// Whether [`BlockDecoder::next_block`] may yield more blocks after
    /// an error. True with a footer (the index skips past damage); false
    /// once a footerless scan hits its first bad block.
    pub fn can_continue(&self) -> bool {
        !self.stopped
    }

    /// Decodes the next block into the scratch buffers and returns a
    /// view of its columns, or `None` at the end of the data.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Corrupt`] for a damaged block. With a
    /// footer the decoder has already advanced past it, so the caller
    /// may keep iterating (salvage); without one the decoder stops.
    pub fn next_block(&mut self) -> Result<Option<BlockView<'_>>, TraceError> {
        if self.stopped {
            return Ok(None);
        }
        let offset = match &self.index {
            Some(index) => match index.get(self.next_index) {
                None => return Ok(None),
                Some(&(offset, _)) => {
                    self.next_index += 1;
                    offset as usize
                }
            },
            None => {
                if self.offset >= self.bytes.len() {
                    return Ok(None);
                }
                self.offset
            }
        };
        let block_no = self.blocks_seen;
        self.blocks_seen += 1;
        let decoded = self.decode_block(offset, block_no);
        self.reach = self.reach.max(*decoded.as_ref().unwrap_or(&offset));
        match decoded {
            Ok(end) => {
                if self.index.is_none() {
                    self.offset = end;
                }
                Ok(Some(self.view()))
            }
            Err(e) => {
                if self.index.is_none() {
                    self.stopped = true;
                }
                Err(e)
            }
        }
    }

    /// The last block [`BlockDecoder::next_block`] decoded.
    fn view(&self) -> BlockView<'_> {
        BlockView {
            ids: &self.ids,
            taken: &self.taken,
            times: &self.times,
            pcs: &self.pcs,
        }
    }

    /// Validates and column-decodes the block at `offset` into the
    /// scratch buffers, returning the offset one past its payload.
    fn decode_block(&mut self, offset: usize, block: u64) -> Result<usize, TraceError> {
        let bytes = self.bytes;
        let header_end = offset + BLOCK_HEADER;
        if header_end > bytes.len() {
            return Err(block_corrupt(block, "truncated block header"));
        }
        if bytes[offset..offset + 4] != SYNC {
            return Err(block_corrupt(block, "bad block sync marker"));
        }
        let mut cur = Cursor::new(&bytes[offset + 4..header_end]);
        let count = cur.get_u32_le()?;
        let new_pc_count = cur.get_u32_le()? as usize;
        let pcs_len = cur.get_u32_le()?;
        let ids_len = cur.get_u32_le()?;
        let times_len = cur.get_u32_le()?;
        let anchor_time = cur.get_u64_le()?;
        let crc = cur.get_u32_le()?;
        if count == 0 || count > MAX_BLOCK_RECORDS {
            return Err(block_corrupt(
                block,
                format!("implausible record count {count}"),
            ));
        }
        if pcs_len > MAX_SECTION || ids_len > MAX_SECTION || times_len > MAX_SECTION {
            return Err(block_corrupt(block, "column section too long"));
        }
        // Varints take at least one byte each, so a valid column is never
        // shorter than its entry count — rejected before any allocation.
        if u64::from(ids_len) < u64::from(count)
            || u64::from(times_len) < u64::from(count)
            || (pcs_len as usize) < new_pc_count
        {
            return Err(block_corrupt(block, "column shorter than its entry count"));
        }
        let n = count as usize;
        let taken_len = n.div_ceil(8);
        let payload_len = pcs_len as usize + ids_len as usize + taken_len + times_len as usize;
        let payload_end = header_end + payload_len;
        if payload_end > bytes.len() {
            return Err(block_corrupt(block, "truncated block payload"));
        }
        let payload = &bytes[header_end..payload_end];
        let computed = Crc32::new()
            .update(&bytes[offset + 4..header_end - 4])
            .update(payload)
            .finish();
        if computed != crc {
            return Err(block_corrupt(block, "checksum mismatch"));
        }
        let (pcs_col, rest) = payload.split_at(pcs_len as usize);
        let (ids_col, rest) = rest.split_at(ids_len as usize);
        let (taken_col, times_col) = rest.split_at(taken_len);

        // New-pc column: replayed footerless to grow the directory,
        // skipped when the footer already supplied it.
        if !self.directory_fixed {
            let mut pos = 0usize;
            let mut prev = 0i64;
            self.pcs.reserve(new_pc_count);
            for _ in 0..new_pc_count {
                let delta = codec::zigzag_decode(read_varint(pcs_col, &mut pos, block)?);
                let pc = prev.wrapping_add(delta);
                self.pcs.push(pc as u64);
                prev = pc;
            }
            if pos != pcs_col.len() {
                return Err(block_corrupt(block, "trailing bytes in new-pc column"));
            }
        }

        // Id column: zigzag deltas from 0, bounded by the directory.
        self.ids.clear();
        self.ids.reserve(n);
        let mut pos = 0usize;
        let mut prev = 0i64;
        for _ in 0..n {
            let delta = codec::zigzag_decode(read_varint(ids_col, &mut pos, block)?);
            let id = prev.wrapping_add(delta);
            if id < 0 || id > i64::from(u32::MAX) {
                return Err(block_corrupt(block, "branch id out of u32 range"));
            }
            self.ids.push(id as u32);
            prev = id;
        }
        if pos != ids_col.len() {
            return Err(block_corrupt(block, "trailing bytes in id column"));
        }
        let dir_len = self.pcs.len();
        // Flat validation scan — no hash lookups, vectorizes.
        if self.ids.iter().any(|&id| id as usize >= dir_len) {
            return Err(block_corrupt(block, "branch id beyond directory"));
        }

        // Taken bitmap: chunked LSB-first expansion.
        self.taken.clear();
        self.taken.reserve(taken_len * 8);
        for &byte in taken_col {
            for bit in 0..8 {
                self.taken.push(byte & (1 << bit) != 0);
            }
        }
        self.taken.truncate(n);

        // Time column: unsigned deltas accumulated from the anchor, so
        // intra-block monotonicity holds by construction.
        self.times.clear();
        self.times.reserve(n);
        let mut pos = 0usize;
        let mut prev = anchor_time;
        for _ in 0..n {
            let delta = read_varint(times_col, &mut pos, block)?;
            prev = prev
                .checked_add(delta)
                .ok_or_else(|| block_corrupt(block, "timestamp overflow"))?;
            self.times.push(prev);
        }
        if pos != times_col.len() {
            return Err(block_corrupt(block, "trailing bytes in time column"));
        }
        Ok(payload_end)
    }
}

/// LEB128 decode against a column slice with a one-byte fast path (the
/// common case for delta columns).
#[inline]
fn read_varint(col: &[u8], pos: &mut usize, block: u64) -> Result<u64, TraceError> {
    if let Some(&b) = col.get(*pos) {
        if b < 0x80 {
            *pos += 1;
            return Ok(u64::from(b));
        }
    }
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&b) = col.get(*pos) else {
            return Err(block_corrupt(block, "truncated varint in column"));
        };
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(block_corrupt(block, "varint overflows u64 in column"));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::TraceBuilder;

    fn sample_trace(records: u64) -> Trace {
        let mut b = TraceBuilder::new("sample");
        for i in 0..records {
            b.record(0x1000 + (i % 13) * 4, i % 3 != 0, 7 * (i + 1));
        }
        let mut t = b.finish();
        t.meta_mut().total_instructions = 7 * records + 100;
        t
    }

    fn encode(trace: &Trace, block_records: usize) -> Vec<u8> {
        let mut buf = Vec::new();
        let mut w = ColumnarWriter::new(&mut buf, &trace.meta().name)
            .unwrap()
            .with_block_records(block_records);
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(trace.meta().total_instructions).unwrap();
        buf
    }

    #[test]
    fn roundtrip_is_record_identical() {
        let trace = sample_trace(1000);
        for block_records in [1, 7, 64, 4096] {
            let buf = encode(&trace, block_records);
            let (back, report) = read_columnar(&buf, RecoveryPolicy::Strict).unwrap();
            assert!(report.clean());
            assert_eq!(back, trace, "block_records={block_records}");
        }
    }

    #[test]
    fn empty_trace_roundtrips() {
        let mut t = Trace::new("empty");
        t.meta_mut().total_instructions = 42;
        let buf = encode(&t, 16);
        let (back, report) = read_columnar(&buf, RecoveryPolicy::Strict).unwrap();
        assert!(report.clean());
        assert!(back.is_empty());
        assert_eq!(back.meta().total_instructions, 42);
    }

    #[test]
    fn footer_indexes_every_block() {
        let trace = sample_trace(100);
        let buf = encode(&trace, 16);
        let file = ColumnarFile::parse(&buf).unwrap();
        let footer = file.footer().unwrap();
        assert_eq!(footer.record_count, 100);
        assert_eq!(footer.blocks.len(), 7); // ceil(100 / 16)
        assert_eq!(
            footer
                .blocks
                .iter()
                .map(|&(_, c)| u64::from(c))
                .sum::<u64>(),
            100
        );
        assert_eq!(footer.pcs.len(), trace.static_branch_count());
    }

    #[test]
    fn unfinished_file_salvages_the_block_prefix() {
        let trace = sample_trace(100);
        let mut buf = Vec::new();
        {
            let mut w = ColumnarWriter::new(&mut buf, "sample")
                .unwrap()
                .with_block_records(16);
            for r in trace.records() {
                w.push(*r).unwrap();
            }
            // No finish(): the buffered 4-record tail and the footer are
            // lost; complete blocks survive.
        }
        assert!(
            read_columnar(&buf, RecoveryPolicy::Strict).is_err(),
            "strict must reject a torn file"
        );
        let (back, report) = read_columnar(&buf, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(back.len(), 96);
        assert_eq!(report.records_recovered, 96);
        assert_eq!(report.chunks_ok, 6);
        assert_eq!(back.records(), &trace.records()[..96]);
    }

    #[test]
    fn corrupt_block_is_skipped_under_salvage_and_fatal_under_strict() {
        let trace = sample_trace(100);
        let mut buf = encode(&trace, 16);
        let second_block_offset = {
            let file = ColumnarFile::parse(&buf).unwrap();
            file.footer().unwrap().blocks[1].0 as usize
        };
        buf[second_block_offset + BLOCK_HEADER + 2] ^= 0x40;

        match read_columnar(&buf, RecoveryPolicy::Strict) {
            Err(TraceError::Corrupt { chunk, .. }) => assert_eq!(chunk, 1),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let (back, report) = read_columnar(&buf, RecoveryPolicy::Salvage).unwrap();
        assert_eq!(report.chunks_dropped, 1);
        assert_eq!(report.chunks_ok, 6);
        assert_eq!(back.len(), 84);
        assert!(report.first_error.unwrap().contains("checksum"));
        // Directory comes from the footer, so later blocks still decode.
        assert_eq!(back.static_branch_count(), trace.static_branch_count());
    }

    #[test]
    fn the_walk_reports_increasing_offsets_within_the_file() {
        let trace = sample_trace(100);
        let clean = encode(&trace, 16);
        let mut damaged = clean.clone();
        let second_block = {
            let file = ColumnarFile::parse(&clean).unwrap();
            file.footer().unwrap().blocks[1].0 as usize
        };
        damaged[second_block + BLOCK_HEADER + 2] ^= 0x40;
        let cut = second_block + BLOCK_HEADER + 5; // torn inside block 1
        let cases: [(&[u8], usize); 4] = [
            (&clean, 7),
            (&damaged, 7), // the dropped block is reported too
            (&clean[..cut], 2),
            (&damaged[..cut], 2),
        ];
        for (case, (bytes, blocks)) in cases.into_iter().enumerate() {
            let file = ColumnarFile::parse(bytes).unwrap();
            let mut offsets = Vec::new();
            let mut kept = 0;
            file.walk(RecoveryPolicy::Salvage, |o| offsets.push(o), |_| kept += 1)
                .unwrap();
            assert_eq!(offsets.len(), blocks, "{offsets:?}");
            assert!(kept <= blocks);
            assert!(offsets.windows(2).all(|w| w[0] <= w[1]), "{offsets:?}");
            assert!(offsets.iter().all(|&o| o <= bytes.len()), "{offsets:?}");
            if case == 0 {
                // An intact block ends where the next begins.
                assert!(offsets.windows(2).all(|w| w[0] < w[1]), "{offsets:?}");
                assert_eq!(offsets[0], second_block);
            }
        }
    }

    #[test]
    fn truncation_never_panics_and_prefix_decodes() {
        let trace = sample_trace(64);
        let buf = encode(&trace, 8);
        for cut in 0..buf.len() {
            if let Ok(file) = ColumnarFile::parse(&buf[..cut]) {
                if let Ok((back, _)) = file.decode(RecoveryPolicy::Salvage) {
                    assert!(back.len() <= trace.len());
                    assert_eq!(back.records(), &trace.records()[..back.len()]);
                }
            }
        }
    }

    #[test]
    fn writer_rejects_out_of_order_records() {
        let mut w = ColumnarWriter::new(Vec::new(), "x").unwrap();
        w.push(BranchRecord::from_raw(0x10, true, 10)).unwrap();
        assert!(matches!(
            w.push(BranchRecord::from_raw(0x10, true, 9)),
            Err(TraceError::OutOfOrder { .. })
        ));
    }

    #[test]
    fn parse_rejects_foreign_magic_and_versions() {
        assert!(ColumnarFile::parse(b"BWSS2 not columnar").is_err());
        let mut buf = Vec::new();
        let w = ColumnarWriter::new(&mut buf, "v").unwrap();
        w.finish(0).unwrap();
        buf[4] = 0xFF; // version low byte
        assert!(ColumnarFile::parse(&buf).is_err());
    }
}
