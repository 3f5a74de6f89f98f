//! What a [`Session`](crate::Session) reads: an in-memory [`Trace`], or
//! the bytes of a trace file in any format. Serial and windowed runs
//! stream a file in blocks of `(ids, stamps, taken)` columns: a `BWSS3`
//! file's decoded blocks, renumbered by first appearance ([`FirstSeen`])
//! as a trace of the surviving records would be, or a `BWSS2` stream's
//! 4096-record batches, interned through a pc table.

use bwsa_trace::columnar::{ColumnarFile, FirstSeen};
use bwsa_trace::stream::{RecoveryPolicy, SalvageReport, StreamReader};
use bwsa_trace::{mmap, BranchTable, Trace, TraceError, TraceMeta};

/// The records a [`Session`](crate::Session) analyses.
#[derive(Debug, Clone, Copy)]
pub enum Source<'t> {
    /// A trace already in memory.
    Trace(&'t Trace),
    /// The bytes of a `BWST`, `BWSS2` or `BWSS3` file, told apart by
    /// their magic and read under `policy`. Serial and windowed runs
    /// stream `BWSS2` and `BWSS3` files and build no [`Trace`]; a `BWST`
    /// file, and any file under a parallel run, is decoded once.
    File {
        /// The whole file, typically memory-mapped.
        bytes: &'t [u8],
        /// How damaged chunks and blocks are met.
        policy: RecoveryPolicy,
    },
}

/// What reading a file source found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ingested {
    /// The header's trace name, and the trailer's or footer's instruction
    /// total, else (for a torn file) the last record's stamp.
    pub meta: TraceMeta,
    /// What the read recovered and dropped.
    pub salvage: SalvageReport,
}

/// One block of records as equal-length `(ids, stamps, taken)` columns.
/// A `BWSS3` block keeps the file's ids, renumbered through its
/// [`FirstSeen`] as they are read.
pub(crate) struct Block<'a>(&'a [u32], &'a [u64], &'a [bool], Option<&'a mut FirstSeen>);

impl Block<'_> {
    /// Hands each record to `push` as `(id, stamp, taken)`.
    pub(crate) fn each(self, mut push: impl FnMut(u32, u64, bool)) {
        let Block(ids, stamps, taken, first_seen) = self;
        let rows = ids.iter().zip(stamps).zip(taken);
        match first_seen {
            Some(seen) => rows.for_each(|((&id, &t), &taken)| push(seen.id(id), t, taken)),
            None => rows.for_each(|((&id, &t), &taken)| push(id, t, taken)),
        }
    }
}

/// Records per `BWSS2` block: the stream's chunk size, and the `BWSS3`
/// writer's default block size.
pub(crate) const BLOCK: usize = bwsa_trace::stream::DEFAULT_CHUNK_RECORDS;

/// Bytes of a streamed file read past between releases of their pages.
const RELEASE_STEP: usize = 256 << 10;

/// Drops the mapped pages of `bytes` from `released` up to `read` once
/// they reach [`RELEASE_STEP`] bytes, and moves `released` past them.
fn release_behind(bytes: &[u8], released: &mut usize, read: usize) {
    if read - *released >= RELEASE_STEP {
        mmap::release(&bytes[*released..read]);
        *released = read;
    }
}

fn ingested(name: &str, total_instructions: u64, salvage: SalvageReport) -> Ingested {
    let name = name.to_owned();
    let meta = TraceMeta {
        name,
        total_instructions,
    };
    Ingested { meta, salvage }
}

/// Walks a `BWSS3` file's blocks under `policy` and hands each one that
/// survives to `sink`. The mapped file pages it has read past leave
/// memory every [`RELEASE_STEP`] bytes, and the rest at the end.
pub(crate) fn replay_columnar(
    bytes: &[u8],
    policy: RecoveryPolicy,
    mut sink: impl FnMut(Block<'_>),
) -> Result<Ingested, TraceError> {
    let file = ColumnarFile::parse(bytes)?;
    let mut first_seen = FirstSeen::default();
    let (mut last_time, mut released) = (0, 0);
    let read = |offset| release_behind(bytes, &mut released, offset);
    let (salvage, _) = file.walk(policy, read, |view| {
        last_time = view.times.last().copied().unwrap_or(last_time);
        let remap = Some(&mut first_seen);
        sink(Block(view.ids, view.times, view.taken, remap));
    })?;
    mmap::release(&bytes[released..]);
    let total = file.footer().map_or(last_time, |f| f.total_instructions);
    Ok(ingested(file.name(), total, salvage))
}

/// A `BWSS2` stream's records in blocks, their pcs interned through the
/// table each [`Batches::next`] call is given. The mapped file pages it
/// has read past leave memory every [`RELEASE_STEP`] bytes.
#[derive(Debug)]
pub(crate) struct Batches<'a> {
    bytes: &'a [u8],
    reader: StreamReader<&'a [u8]>,
    columns: (Vec<u32>, Vec<u64>, Vec<bool>),
    last_time: u64,
    released: usize,
}

impl<'a> Batches<'a> {
    pub(crate) fn open(bytes: &'a [u8], policy: RecoveryPolicy) -> Result<Self, TraceError> {
        let reader = StreamReader::with_recovery(bytes, policy)?;
        let columns = Default::default();
        Ok(Batches {
            bytes,
            reader,
            columns,
            last_time: 0,
            released: 0,
        })
    }

    pub(crate) fn name(&self) -> &str {
        self.reader.name()
    }

    /// Reads past up to `n` records; returns how many there were.
    pub(crate) fn skip(&mut self, n: u64) -> Result<u64, TraceError> {
        let (n, mut skipped) = (usize::try_from(n).unwrap_or(usize::MAX), 0);
        for record in self.reader.by_ref().take(n) {
            self.last_time = record?.time.get();
            skipped += 1;
        }
        self.release();
        Ok(skipped)
    }

    /// The next block of at most `limit` records, interned through
    /// `table`; `None` at the end of the stream.
    pub(crate) fn next(
        &mut self,
        table: &mut BranchTable,
        limit: usize,
    ) -> Result<Option<Block<'_>>, TraceError> {
        self.release();
        let (ids, stamps, taken) = &mut self.columns;
        ids.clear();
        stamps.clear();
        taken.clear();
        for record in self.reader.by_ref().take(limit) {
            let record = record?;
            self.last_time = record.time.get();
            ids.push(table.intern(record.pc).as_u32());
            stamps.push(self.last_time);
            taken.push(record.is_taken());
        }
        Ok((!ids.is_empty()).then_some(Block(ids, stamps, taken, None)))
    }

    /// Drops the mapped pages read past since the last release, once
    /// they reach [`RELEASE_STEP`] bytes.
    fn release(&mut self) {
        let read = self.bytes.len() - self.reader.get_ref().len();
        release_behind(self.bytes, &mut self.released, read);
    }

    /// What the read found, once [`Batches::next`] has returned `None`;
    /// the rest of the mapped pages leave memory.
    pub(crate) fn finish(self) -> Ingested {
        mmap::release(&self.bytes[self.released..]);
        let total = self.reader.total_instructions().unwrap_or(self.last_time);
        let salvage = self.reader.salvage_report().clone();
        ingested(self.reader.name(), total, salvage)
    }
}
