//! What a [`Session`](crate::Session) reads: an in-memory [`Trace`], or
//! the bytes of a trace file in any format. Every run streams a `BWSS2`
//! or `BWSS3` file (`Feed`) in blocks of `(ids, stamps, taken)` columns,
//! through one block decoder (`Decoder`): a `BWSS3` file's decoded
//! blocks, renumbered by first appearance ([`FirstSeen`]) as a trace of
//! the surviving records would be, or a `BWSS2` stream's 4096-record
//! batches, interned through the decoder's own pc table (`Batches`). A
//! serial run reads the file alone (`Feed::replay`), as a retried
//! parallel worker does; the workers of a parallel run read a file
//! decoded once for all of them (`SharedStream`). So a file has one or
//! more readers, and its mapped pages leave memory once every one of
//! them has read past them (`Pages`).

use bwsa_trace::columnar::{ColumnarFile, FirstSeen, Walk};
use bwsa_trace::stream::{RecoveryPolicy, SalvageReport, StreamReader};
use bwsa_trace::{mmap, BranchTable, Format, Trace, TraceError, TraceMeta};
use std::collections::VecDeque;
use std::ops::ControlFlow;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// The records a [`Session`](crate::Session) analyses.
#[derive(Debug, Clone, Copy)]
pub enum Source<'t> {
    /// A trace already in memory.
    Trace(&'t Trace),
    /// The bytes of a `BWST`, `BWSS2` or `BWSS3` file, told apart by
    /// their magic and read under `policy`. Every run streams a `BWSS2`
    /// or `BWSS3` file and builds no [`Trace`]; a parallel run decodes
    /// each block once for all its workers. A `BWST` file is decoded
    /// whole, once.
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
const BLOCK: usize = bwsa_trace::stream::DEFAULT_CHUNK_RECORDS;

/// Bytes of a streamed file read past between releases of their pages.
const RELEASE_STEP: usize = 256 << 10;

/// A mapped file's pages, released behind the readers of one run: a page
/// leaves memory once every reader has read past it, each time that
/// prefix grows by [`RELEASE_STEP`] bytes, and the rest once every
/// reader is done. A reader that starts over (a retried worker) reads the
/// released pages back from the page cache.
#[derive(Debug)]
pub(crate) struct Pages<'a> {
    bytes: &'a [u8],
    /// Each reader's offset, and the end of the released prefix.
    read: Mutex<(Vec<usize>, usize)>,
}

impl<'a> Pages<'a> {
    /// The pages of `bytes`, which `readers` readers walk.
    pub(crate) fn new(bytes: &'a [u8], readers: usize) -> Self {
        let read = Mutex::new((vec![0; readers], 0));
        Pages { bytes, read }
    }

    /// Reader `reader` has read `bytes[..offset]`.
    fn read(&self, reader: usize, offset: usize) {
        // Only integer updates and the release run under the lock, and
        // none of them panics, so a poisoned lock holds whole state.
        let mut read = self.read.lock().unwrap_or_else(PoisonError::into_inner);
        let (offsets, released) = &mut *read;
        offsets[reader] = offset;
        let behind = offsets.iter().copied().min().unwrap_or(offset);
        let end = self.bytes.len();
        if behind >= *released + RELEASE_STEP || (behind == end && *released < end) {
            mmap::release(&self.bytes[*released..behind]);
            *released = behind;
        }
    }

    /// Reader `reader` is done with the file, or idle.
    pub(crate) fn done(&self, reader: usize) {
        self.read(reader, self.bytes.len());
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

/// A `BWSS3` or `BWSS2` file source, which every run streams block by
/// block.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Feed<'t> {
    /// A `BWSS3` file, read under the policy.
    Columnar(&'t [u8], RecoveryPolicy),
    /// A `BWSS2` stream, read under the policy.
    Stream(&'t [u8], RecoveryPolicy),
}

impl<'t> Feed<'t> {
    /// The feed of a `BWSS3` or `BWSS2` file source; `None` for an
    /// in-memory trace or a `BWST` file.
    pub(crate) fn of(source: Source<'t>) -> Result<Option<Self>, TraceError> {
        let Source::File { bytes, policy } = source else {
            return Ok(None);
        };
        Ok(match Format::sniff(bytes)? {
            Format::Bwss3 => Some(Feed::Columnar(bytes, policy)),
            Format::Bwss => Some(Feed::Stream(bytes, policy)),
            Format::Bwst => None,
        })
    }

    /// The file's bytes.
    pub(crate) fn bytes(self) -> &'t [u8] {
        match self {
            Feed::Columnar(bytes, _) | Feed::Stream(bytes, _) => bytes,
        }
    }

    /// Walks the file as reader `reader` of `pages`, the pages of
    /// [`Feed::bytes`], and hands each block that survives to `sink`.
    pub(crate) fn replay(
        self,
        pages: &Pages<'_>,
        reader: usize,
        mut sink: impl FnMut(Block<'_>),
    ) -> Result<Ingested, TraceError> {
        let mut decoder = Decoder::open(self, pages, reader)?;
        while let Some(block) = decoder.next()? {
            sink(block);
        }
        decoder.finish()
    }
}

/// One reader of a `BWSS3` or `BWSS2` file, a block at a time.
#[derive(Debug)]
enum Decoder<'a> {
    /// A `BWSS3` file's walk, its ids renumbered by first appearance, the
    /// last stamp read (a torn file's instruction total), and the reader's
    /// pages.
    Columnar {
        file: ColumnarFile<'a>,
        walk: Walk<'a>,
        first_seen: FirstSeen,
        last_time: u64,
        pages: (&'a Pages<'a>, usize),
    },
    /// A `BWSS2` stream.
    Stream(Batches<'a>),
}

impl<'a> Decoder<'a> {
    /// Opens `feed` as reader `reader` of `pages`, the pages of its bytes.
    fn open(feed: Feed<'a>, pages: &'a Pages<'a>, reader: usize) -> Result<Self, TraceError> {
        Ok(match feed {
            Feed::Columnar(_, policy) => {
                let file = ColumnarFile::parse(pages.bytes)?;
                let walk = file.blocks(policy)?;
                let (first_seen, last_time) = (FirstSeen::default(), 0);
                let pages = (pages, reader);
                Decoder::Columnar {
                    file,
                    walk,
                    first_seen,
                    last_time,
                    pages,
                }
            }
            Feed::Stream(_, policy) => Decoder::Stream(Batches::open(pages, reader, policy)?),
        })
    }

    /// The next block that survives; `None` at the end.
    fn next(&mut self) -> Result<Option<Block<'_>>, TraceError> {
        match self {
            Decoder::Columnar {
                walk,
                first_seen,
                last_time,
                pages: (pages, reader),
                ..
            } => Ok(walk
                .next(|offset| pages.read(*reader, offset))?
                .map(|view| {
                    *last_time = view.times.last().copied().unwrap_or(*last_time);
                    Block(view.ids, view.times, view.taken, Some(first_seen))
                })),
            Decoder::Stream(batches) => batches.next(),
        }
    }

    /// What the read found, once [`Decoder::next`] has returned `None`;
    /// the reader is done with the pages.
    fn finish(&self) -> Result<Ingested, TraceError> {
        match self {
            Decoder::Columnar {
                file,
                walk,
                last_time,
                pages: (pages, reader),
                ..
            } => {
                let (salvage, _) = walk.finish()?;
                pages.done(*reader);
                let total = file.footer().map_or(*last_time, |f| f.total_instructions);
                Ok(ingested(file.name(), total, salvage))
            }
            Decoder::Stream(batches) => Ok(batches.finish()),
        }
    }
}

/// A `BWSS2` stream's records in blocks of [`BLOCK`], their pcs interned
/// through a pc table of its own, read as one reader of the file's
/// [`Pages`].
#[derive(Debug)]
struct Batches<'a> {
    pages: &'a Pages<'a>,
    reader: usize,
    stream: StreamReader<&'a [u8]>,
    table: BranchTable,
    columns: (Vec<u32>, Vec<u64>, Vec<bool>),
    last_time: u64,
}

impl<'a> Batches<'a> {
    /// Opens the stream of `pages`' bytes as reader `reader`.
    fn open(
        pages: &'a Pages<'a>,
        reader: usize,
        policy: RecoveryPolicy,
    ) -> Result<Self, TraceError> {
        let stream = StreamReader::with_recovery(pages.bytes, policy)?;
        Ok(Batches {
            pages,
            reader,
            stream,
            table: BranchTable::new(),
            columns: Default::default(),
            last_time: 0,
        })
    }

    /// The next block; `None` at the end of the stream.
    fn next(&mut self) -> Result<Option<Block<'_>>, TraceError> {
        self.release();
        let (ids, stamps, taken) = &mut self.columns;
        ids.clear();
        stamps.clear();
        taken.clear();
        for record in self.stream.by_ref().take(BLOCK) {
            let record = record?;
            self.last_time = record.time.get();
            ids.push(self.table.intern(record.pc).as_u32());
            stamps.push(self.last_time);
            taken.push(record.is_taken());
        }
        Ok((!ids.is_empty()).then_some(Block(ids, stamps, taken, None)))
    }

    /// Tells the pages how far this reader has read.
    fn release(&self) {
        let read = self.pages.bytes.len() - self.stream.get_ref().len();
        self.pages.read(self.reader, read);
    }

    /// What the read found, once [`Batches::next`] has returned `None`;
    /// this reader is done with the pages.
    fn finish(&self) -> Ingested {
        self.pages.done(self.reader);
        let total = self.stream.total_instructions().unwrap_or(self.last_time);
        let salvage = self.stream.salvage_report().clone();
        ingested(self.stream.name(), total, salvage)
    }
}

/// Decoded blocks a [`SharedStream`] keeps: a worker that would run this
/// many blocks ahead of the slowest one waits for it.
const WINDOW: usize = 4;

/// A `BWSS3` or `BWSS2` file decoded once for every worker of a parallel
/// run. The first worker to need a block decodes it, outside the lock on
/// the window of decoded blocks, and every worker reads it, so no block
/// is decoded twice and the decoding falls to whichever worker is ahead.
/// A block leaves the window once every worker has read it. The stream
/// is reader 0 of its pages.
#[derive(Debug)]
pub(crate) struct SharedStream<'a> {
    decoder: Mutex<Decoder<'a>>,
    window: Mutex<Window>,
    moved: Condvar,
}

/// The decoded blocks some worker has still to read, and where every
/// worker is.
#[derive(Debug)]
struct Window {
    /// The number of `blocks[0]` in the stream.
    first: usize,
    blocks: VecDeque<Arc<Columns>>,
    /// Each worker's next block; `usize::MAX` once it has left.
    next: Vec<usize>,
    /// Whether each worker has started reading the window.
    joined: Vec<bool>,
    /// A worker is decoding the block after the window's last.
    decoding: bool,
    /// What the read found, once the file has ended.
    end: Option<Ingested>,
    /// The decoder stopped short: the file did not decode, or a worker
    /// failed while decoding.
    broken: bool,
}

/// One decoded block's `(ids, stamps, taken)` columns.
#[derive(Debug)]
struct Columns(Vec<u32>, Vec<u64>, Vec<bool>);

/// What a worker reads next from a [`SharedStream`].
enum Step {
    Block(Arc<Columns>),
    End(Result<Ingested, TraceError>),
    /// The shared read stopped short: the worker reads the file alone.
    Alone,
}

impl<'a> SharedStream<'a> {
    /// Opens `feed`, whose bytes `pages` holds, as reader 0 of its pages,
    /// for `workers` workers.
    pub(crate) fn open(
        feed: Feed<'a>,
        pages: &'a Pages<'a>,
        workers: usize,
    ) -> Result<Self, TraceError> {
        let decoder = Decoder::open(feed, pages, 0)?;
        let window = Window {
            first: 0,
            blocks: VecDeque::new(),
            next: vec![0; workers],
            joined: vec![false; workers],
            decoding: false,
            end: None,
            broken: false,
        };
        Ok(SharedStream {
            decoder: Mutex::new(decoder),
            window: Mutex::new(window),
            moved: Condvar::new(),
        })
    }

    fn lock(&self) -> MutexGuard<'_, Window> {
        // Only plain field updates run under the lock.
        self.window.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands every block to `sink` as worker `worker`, after `start` (which
    /// may unwind: the worker then leaves the window), and returns what
    /// the read found; `None` when the worker must read the file alone,
    /// because it has read the window before (a retried worker) or the
    /// shared read stopped short.
    pub(crate) fn replay(
        &self,
        worker: usize,
        start: impl FnOnce(),
        mut sink: impl FnMut(Block<'_>),
    ) -> Option<Result<Ingested, TraceError>> {
        if std::mem::replace(&mut self.lock().joined[worker], true) {
            return None;
        }
        let mut reader = Reader {
            stream: self,
            worker,
            decoding: false,
        };
        start();
        for seq in 0.. {
            match reader.next(seq) {
                Step::Block(columns) => {
                    let Columns(ids, stamps, taken) = &*columns;
                    sink(Block(ids, stamps, taken, None));
                }
                Step::End(read) => return Some(read),
                Step::Alone => return None,
            }
        }
        None
    }
}

/// One worker's place in a [`SharedStream`]. Dropped, also by an unwind,
/// it leaves the window, and a decode it leaves unfinished breaks the
/// stream.
struct Reader<'s, 'a> {
    stream: &'s SharedStream<'a>,
    worker: usize,
    decoding: bool,
}

impl Reader<'_, '_> {
    /// Block `seq`, once the worker has read every block before it.
    fn next(&mut self, seq: usize) -> Step {
        let mut window = self.stream.lock();
        window.next[self.worker] = seq;
        window.drop_read();
        self.stream.moved.notify_all();
        loop {
            let Some(at) = seq.checked_sub(window.first) else {
                return Step::Alone; // the block has left: read alone
            };
            if let Some(block) = window.blocks.get(at) {
                return Step::Block(Arc::clone(block));
            }
            if window.broken {
                return Step::Alone;
            }
            if let Some(read) = &window.end {
                return Step::End(Ok(read.clone()));
            }
            if window.decoding || window.blocks.len() >= WINDOW {
                window = self.wait(window);
                continue;
            }
            (window.decoding, self.decoding) = (true, true);
            drop(window);
            let decoded = self.decode();
            window = self.stream.lock();
            (window.decoding, self.decoding) = (false, false);
            match decoded {
                Ok(ControlFlow::Continue(columns)) => window.blocks.push_back(Arc::new(columns)),
                Ok(ControlFlow::Break(read)) => window.end = Some(read),
                Err(error) => {
                    window.broken = true;
                    self.stream.moved.notify_all();
                    return Step::End(Err(error));
                }
            }
            self.stream.moved.notify_all();
        }
    }

    /// The next block, copied out of the decoder, or what the read found
    /// at the end.
    fn decode(&self) -> Result<ControlFlow<Ingested, Columns>, TraceError> {
        // A worker that unwinds while decoding breaks the stream, so none
        // decodes after it.
        let mut decoder = self.stream.decoder.lock().expect("no decode after a fault");
        let Some(block) = decoder.next()? else {
            return decoder.finish().map(ControlFlow::Break);
        };
        let mut columns = Columns(Vec::new(), Vec::new(), Vec::new());
        block.each(|id, stamp, taken| {
            columns.0.push(id);
            columns.1.push(stamp);
            columns.2.push(taken);
        });
        Ok(ControlFlow::Continue(columns))
    }

    fn wait<'g>(&self, window: MutexGuard<'g, Window>) -> MutexGuard<'g, Window> {
        let moved = self.stream.moved.wait(window);
        moved.unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for Reader<'_, '_> {
    fn drop(&mut self) {
        let mut window = self.stream.lock();
        window.next[self.worker] = usize::MAX;
        window.broken |= self.decoding;
        window.decoding &= !self.decoding;
        window.drop_read();
        self.stream.moved.notify_all();
    }
}

impl Window {
    /// Drops the blocks every worker has read.
    fn drop_read(&mut self) {
        let slowest = self.next.iter().copied().min().unwrap_or(usize::MAX);
        while self.first < slowest && self.blocks.pop_front().is_some() {
            self.first += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_resilience::{failpoint, spawn_scoped};
    use bwsa_trace::TraceBuilder;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A `BWSS2` stream of seven blocks, more than the shared window holds.
    fn stream() -> Vec<u8> {
        let mut b = TraceBuilder::new("shared");
        for i in 0..6 * BLOCK as u64 + 7 {
            b.record(0x40 + (i * i) % 37 * 4, i % 3 == 0, i + 1);
        }
        let mut bytes = Vec::new();
        Format::Bwss.write(&b.finish(), &mut bytes).unwrap();
        bytes
    }

    type Records = Vec<(u32, u64, bool)>;

    fn feed(bytes: &[u8]) -> Feed<'_> {
        Feed::Stream(bytes, RecoveryPolicy::Strict)
    }

    /// The records `feed` holds and what reading them found, read alone.
    fn alone(feed: Feed<'_>) -> (Records, Ingested) {
        let mut records = Vec::new();
        let push = |block: Block<'_>| block.each(|id, t, taken| records.push((id, t, taken)));
        let read = feed.replay(&Pages::new(feed.bytes(), 1), 0, push).unwrap();
        (records, read)
    }

    /// Each of `workers` workers' replay of `shared` on its own thread:
    /// what it returned, or the message it unwound with, and the records
    /// it was handed. Worker `w` runs `start(w)` first.
    #[allow(clippy::type_complexity)]
    fn share_out(
        shared: &SharedStream<'_>,
        workers: usize,
        start: impl Fn(usize) + Sync,
    ) -> Vec<(Result<Option<Result<Ingested, String>>, String>, Records)> {
        std::thread::scope(|scope| {
            let runs: Vec<_> = (0..workers)
                .map(|worker| {
                    let start = &start;
                    spawn_scoped(scope, move || {
                        let mut seen = Vec::new();
                        let replay = catch_unwind(AssertUnwindSafe(|| {
                            let push = |b: Block<'_>| b.each(|id, t, k| seen.push((id, t, k)));
                            shared.replay(worker, || start(worker), push)
                        }));
                        let replay = replay
                            .map(|read| read.map(|read| read.map_err(|e| e.to_string())))
                            .map_err(|_| "unwound".to_owned());
                        (replay, seen)
                    })
                })
                .collect();
            runs.into_iter().map(|run| run.join().unwrap()).collect()
        })
    }

    #[test]
    fn every_worker_reads_every_block_of_a_shared_stream_once_decoded() {
        let bwss = stream();
        let (trace, _) = bwsa_trace::decode(&bwss, RecoveryPolicy::Strict).unwrap();
        let mut bws3 = Vec::new();
        let mut w = bwsa_trace::columnar::ColumnarWriter::new(&mut bws3, "shared")
            .unwrap()
            .with_block_records(64);
        trace.records().iter().for_each(|r| w.push(*r).unwrap());
        w.finish(trace.meta().total_instructions).unwrap();
        let feeds = [feed(&bwss), Feed::Columnar(&bws3, RecoveryPolicy::Strict)];
        for feed in feeds {
            let (records, read) = alone(feed);
            let pages = Pages::new(feed.bytes(), 1);
            let shared = SharedStream::open(feed, &pages, 3).unwrap();
            for (replay, seen) in share_out(&shared, 3, |_| {}) {
                assert_eq!(replay, Ok(Some(Ok(read.clone()))), "{feed:?}");
                assert_eq!(seen, records, "{feed:?}");
            }
            // A worker back for a second pass is a retried one: it reads
            // alone.
            assert!(shared.replay(0, || {}, |_| {}).is_none());
            let released = pages.read.lock().unwrap().1;
            assert_eq!(released, feed.bytes().len(), "all released");
        }
    }

    #[test]
    fn a_worker_that_unwinds_leaves_the_window_to_the_rest() {
        let bytes = stream();
        let (records, read) = alone(feed(&bytes));
        let pages = Pages::new(&bytes, 1);
        let shared = SharedStream::open(feed(&bytes), &pages, 3).unwrap();
        // Worker 1 unwinds before its first block: were it still counted,
        // the others would wait for it once the window filled.
        let runs = share_out(&shared, 3, |worker| assert_ne!(worker, 1, "fault"));
        for (worker, (replay, seen)) in runs.into_iter().enumerate() {
            if worker == 1 {
                assert_eq!(replay, Err("unwound".to_owned()));
            } else {
                assert_eq!(replay, Ok(Some(Ok(read.clone()))));
                assert_eq!(seen, records);
            }
        }
    }

    #[test]
    fn a_fault_while_decoding_sends_the_other_workers_to_read_alone() {
        let bytes = stream();
        let pages = Pages::new(&bytes, 1);
        let shared = SharedStream::open(feed(&bytes), &pages, 3).unwrap();
        let _fault = failpoint::scoped("trace.decode_record=1*panic(decoding)").unwrap();
        let runs = share_out(&shared, 3, |_| {});
        let unwound = runs.iter().filter(|(replay, _)| replay.is_err()).count();
        assert_eq!(unwound, 1, "the decoding worker unwinds");
        for (replay, _) in runs {
            assert!(matches!(replay, Err(_) | Ok(None)), "{replay:?}");
        }
    }

    #[test]
    fn a_block_that_does_not_decode_ends_one_worker_and_sends_the_rest_alone() {
        let mut bytes = stream();
        let middle = bytes.len() / 2;
        bytes[middle] ^= 0xff;
        let pages = Pages::new(&bytes, 1);
        let shared = SharedStream::open(feed(&bytes), &pages, 2).unwrap();
        let runs = share_out(&shared, 2, |_| {});
        let ended = runs
            .iter()
            .filter(|(replay, _)| matches!(replay, Ok(Some(Err(_)))));
        assert_eq!(ended.count(), 1, "the decoding worker meets the damage");
        assert!(runs.iter().any(|(replay, _)| replay == &Ok(None)));
    }

    #[test]
    fn pages_leave_memory_only_behind_the_slowest_reader() {
        // A heap buffer is outside every mapping, so the releases are
        // no-ops and only the bookkeeping is under test.
        let bytes = vec![0u8; 3 * RELEASE_STEP + 10];
        let pages = Pages::new(&bytes, 2);
        let released = |pages: &Pages<'_>| pages.read.lock().unwrap().1;
        pages.read(0, 2 * RELEASE_STEP);
        assert_eq!(released(&pages), 0, "reader 1 has read nothing yet");
        pages.read(1, RELEASE_STEP + 1);
        assert_eq!(released(&pages), RELEASE_STEP + 1);
        pages.read(1, RELEASE_STEP + 2);
        assert_eq!(released(&pages), RELEASE_STEP + 1, "less than a step");
        // A retried reader starts over; what was released stays released.
        pages.read(1, 0);
        assert_eq!(released(&pages), RELEASE_STEP + 1);
        pages.done(0);
        assert_eq!(released(&pages), RELEASE_STEP + 1);
        pages.done(1);
        assert_eq!(released(&pages), bytes.len(), "the rest, once all are done");
    }
}
