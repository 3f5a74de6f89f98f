//! Resumable streaming analysis: run the paper's pipeline over a record
//! stream with periodic checkpoints, so a multi-hour profiling analysis
//! survives being killed.
//!
//! [`StreamingAnalysis`] accumulates exactly the state the in-memory
//! pipeline derives from a trace — the pc interner, per-branch execution
//! statistics, the interleave edge counts, and each branch's latest
//! timestamp — one record at a time. [`StreamingAnalysis::save`] freezes
//! that state into a self-validating byte blob (magic `BWCK`, version,
//! kind 2, CRC32 trailer; simulation checkpoints use kind 1, see
//! [`bwsa_predictor::SimCheckpoint`]); [`StreamingAnalysis::load`] rebuilds
//! the engine from it. Feeding the remaining records afterwards yields an
//! [`Analysis`] bit-identical to an uninterrupted run. The edge counts are
//! saved merged, in increasing `(a, b)` order, and restored into the
//! detector's spill table; the recency index is not saved at all, since
//! it is fully derivable from the latest-timestamp table.

use crate::error::CoreError;
use crate::interleave::Accumulator;
use crate::merge::ShardDelta;
use crate::pipeline::{Analysis, AnalysisPipeline};
use bwsa_graph::GraphBuilder;
use bwsa_trace::codec::{self, Cursor};
use bwsa_trace::profile::BranchStats;
use bwsa_trace::{BranchRecord, BranchTable, TraceError};

/// Magic prefix shared by all checkpoint files in the workspace.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"BWCK";
/// Current checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;
/// Kind byte for analysis checkpoints (simulation checkpoints use 1).
pub const CHECKPOINT_KIND_ANALYSIS: u8 = 2;

/// An incremental, checkpointable run of the full analysis pipeline.
///
/// # Example
///
/// ```
/// use bwsa_core::{pipeline::AnalysisPipeline, StreamingAnalysis};
/// use bwsa_trace::{BranchRecord, TraceBuilder};
///
/// let mut t = TraceBuilder::new("demo");
/// for i in 0..1000u64 {
///     t.record(0x100 + (i % 3) * 4, i % 2 == 0, i + 1);
/// }
/// let trace = t.finish();
/// let pipeline = AnalysisPipeline::new();
///
/// // Stream half the records, "crash", resume from the checkpoint.
/// let mut first = StreamingAnalysis::new("demo");
/// for r in &trace.records()[..500] {
///     first.push(r);
/// }
/// let blob = first.save();
///
/// let mut resumed = StreamingAnalysis::load(&blob).unwrap();
/// assert_eq!(resumed.records_consumed(), 500);
/// for r in &trace.records()[500..] {
///     resumed.push(r);
/// }
/// let direct = pipeline.run_observed(&trace, &bwsa_obs::Obs::noop());
/// assert_eq!(resumed.finish(&pipeline), direct);
/// ```
#[derive(Debug, Clone)]
pub struct StreamingAnalysis {
    trace_name: String,
    /// The pc interner: ids in first-appearance order.
    table: BranchTable,
    acc: Accumulator,
}

impl StreamingAnalysis {
    /// Creates an empty analysis for the named trace.
    pub fn new(trace_name: impl Into<String>) -> Self {
        StreamingAnalysis {
            trace_name: trace_name.into(),
            table: BranchTable::new(),
            acc: Accumulator::new(0),
        }
    }

    /// Name of the trace being analysed (from the stream header).
    pub fn trace_name(&self) -> &str {
        &self.trace_name
    }

    /// Dynamic branches consumed so far.
    pub fn records_consumed(&self) -> u64 {
        self.acc.records
    }

    /// Distinct static branches seen so far.
    pub fn static_branch_count(&self) -> usize {
        self.table.len()
    }

    /// Consumes one dynamic branch record: interns its pc and counts it
    /// exactly as [`AnalysisPipeline::run_observed`] counts a trace's.
    pub fn push(&mut self, rec: &BranchRecord) {
        let id = self.table.intern(rec.pc);
        self.acc.push(id.as_u32(), rec.time.get(), rec.is_taken());
    }

    /// Drains a fallible record source (e.g. a
    /// [`bwsa_trace::stream::StreamReader`]) into the analysis.
    ///
    /// # Errors
    ///
    /// Propagates the first error the source yields; records consumed
    /// before the error remain accounted for.
    pub fn consume<I>(&mut self, records: I) -> Result<(), TraceError>
    where
        I: IntoIterator<Item = Result<BranchRecord, TraceError>>,
    {
        for record in records {
            self.push(&record?);
        }
        Ok(())
    }

    /// Completes the pipeline on everything consumed so far, producing the
    /// same [`Analysis`] that [`AnalysisPipeline::run_observed`] computes
    /// from an in-memory trace of the same records.
    pub fn finish(self, pipeline: &AnalysisPipeline) -> Analysis {
        self.finish_observed(pipeline, &bwsa_obs::Obs::noop())
    }

    /// [`StreamingAnalysis::finish`] with stage timings and graph
    /// counters reported into `obs`. The result is bit-identical either
    /// way.
    pub fn finish_observed(self, pipeline: &AnalysisPipeline, obs: &bwsa_obs::Obs) -> Analysis {
        self.acc.into_analysis(pipeline, obs)
    }

    /// [`StreamingAnalysis::save`] with the serialisation time recorded
    /// as a `checkpoint_save` span.
    pub fn save_observed(&self, obs: &bwsa_obs::Obs) -> Vec<u8> {
        let _span = obs.span("checkpoint_save");
        self.save()
    }

    /// [`StreamingAnalysis::load`] with the restore time recorded as a
    /// `checkpoint_restore` span.
    ///
    /// # Errors
    ///
    /// Exactly those of [`StreamingAnalysis::load`].
    pub fn load_observed(bytes: &[u8], obs: &bwsa_obs::Obs) -> Result<Self, CoreError> {
        let _span = obs.span("checkpoint_restore");
        Self::load(bytes)
    }

    /// Serialises the analysis state, appending a CRC32 of everything
    /// before it.
    pub fn save(&self) -> Vec<u8> {
        bwsa_resilience::failpoint!("core.checkpoint_save");
        let mut buf = Vec::new();
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.push(CHECKPOINT_VERSION);
        buf.push(CHECKPOINT_KIND_ANALYSIS);
        codec::put_varint(&mut buf, self.trace_name.len() as u64);
        buf.extend_from_slice(self.trace_name.as_bytes());
        codec::put_varint(&mut buf, self.acc.records);
        // Interned pcs in id order — interning them again in this order
        // reproduces the table.
        codec::put_varint(&mut buf, self.table.len() as u64);
        for (_, pc) in self.table.iter() {
            codec::put_varint(&mut buf, pc.addr());
        }
        // Per-branch statistics, parallel to the table.
        codec::put_varint(&mut buf, self.acc.stats.len() as u64);
        for s in &self.acc.stats {
            codec::put_varint(&mut buf, s.executions);
            codec::put_varint(&mut buf, s.taken);
            codec::put_varint(&mut buf, s.first_time.get());
            codec::put_varint(&mut buf, s.last_time.get());
        }
        // Latest stamp per branch; stamp+1 so 0 encodes "never executed".
        let detector = &self.acc.detector;
        codec::put_varint(&mut buf, detector.last_stamps().len() as u64);
        for stamp in detector.last_stamps() {
            codec::put_varint(&mut buf, stamp.map_or(0, |t| t + 1));
        }
        // Accumulated interleave edges in increasing (a, b) order, for a
        // deterministic encoding.
        let spill = detector.sorted_spill();
        let edges = detector.sorted_edges(&spill);
        codec::put_varint(&mut buf, edges.clone().count() as u64);
        for (a, b, w) in edges {
            codec::put_varint(&mut buf, u64::from(a));
            codec::put_varint(&mut buf, u64::from(b));
            codec::put_varint(&mut buf, w);
        }
        let crc = codec::crc32(&buf);
        codec::put_u32_le(&mut buf, crc);
        buf
    }

    /// Rebuilds an analysis from bytes produced by
    /// [`StreamingAnalysis::save`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Checkpoint`] on a bad magic, unsupported
    /// version, wrong kind, CRC mismatch, or malformed payload.
    pub fn load(bytes: &[u8]) -> Result<Self, CoreError> {
        bwsa_resilience::failpoint!("core.checkpoint_restore");
        fn malformed(e: TraceError) -> CoreError {
            CoreError::checkpoint(format!("malformed state: {e}"))
        }
        fn get_len(cur: &mut Cursor<'_>, what: &str) -> Result<usize, CoreError> {
            let len = cur.get_varint().map_err(malformed)? as usize;
            if len > cur.remaining() {
                return Err(CoreError::checkpoint(format!(
                    "checkpoint claims {len} {what} but only {} bytes remain",
                    cur.remaining()
                )));
            }
            Ok(len)
        }
        if bytes.len() < CHECKPOINT_MAGIC.len() + 2 + 4 {
            return Err(CoreError::checkpoint("checkpoint too short to be valid"));
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(crc_bytes.try_into().expect("split_at(len-4)"));
        if codec::crc32(body) != stored {
            return Err(CoreError::checkpoint(
                "checkpoint CRC mismatch — file is corrupt or truncated",
            ));
        }
        let mut cur = Cursor::new(body);
        let magic = cur.take(4).map_err(malformed)?;
        if magic != CHECKPOINT_MAGIC {
            return Err(CoreError::checkpoint("not a checkpoint file (bad magic)"));
        }
        let version = cur.get_u8().map_err(malformed)?;
        if version != CHECKPOINT_VERSION {
            return Err(CoreError::checkpoint(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let kind = cur.get_u8().map_err(malformed)?;
        if kind != CHECKPOINT_KIND_ANALYSIS {
            return Err(CoreError::checkpoint(format!(
                "checkpoint kind {kind} is not an analysis checkpoint"
            )));
        }
        let name_len = get_len(&mut cur, "name bytes")?;
        let trace_name = String::from_utf8(cur.take(name_len).map_err(malformed)?.to_vec())
            .map_err(|e| CoreError::checkpoint(format!("trace name is not utf-8: {e}")))?;
        let records_consumed = cur.get_varint().map_err(malformed)?;

        let n_pcs = get_len(&mut cur, "pcs")?;
        let mut table = BranchTable::new();
        for _ in 0..n_pcs {
            let pc = cur.get_varint().map_err(malformed)?;
            table.intern(pc.into());
        }
        if table.len() != n_pcs {
            return Err(CoreError::checkpoint("duplicate pc in checkpoint table"));
        }

        let n_stats = get_len(&mut cur, "stat entries")?;
        if n_stats != n_pcs {
            return Err(CoreError::checkpoint(format!(
                "checkpoint has {n_stats} stat entries for {n_pcs} branches"
            )));
        }
        let mut stats = Vec::with_capacity(n_stats);
        for _ in 0..n_stats {
            let executions = cur.get_varint().map_err(malformed)?;
            let taken = cur.get_varint().map_err(malformed)?;
            let first_time = cur.get_varint().map_err(malformed)?;
            let last_time = cur.get_varint().map_err(malformed)?;
            if taken > executions {
                return Err(CoreError::checkpoint(
                    "stat entry has more taken than executed",
                ));
            }
            stats.push(BranchStats {
                executions,
                taken,
                first_time: first_time.into(),
                last_time: last_time.into(),
            });
        }

        let n_stamps = get_len(&mut cur, "stamps")?;
        if n_stamps != n_pcs {
            return Err(CoreError::checkpoint(format!(
                "checkpoint has {n_stamps} stamps for {n_pcs} branches"
            )));
        }
        let mut last_stamp = Vec::with_capacity(n_stamps);
        for _ in 0..n_stamps {
            let raw = cur.get_varint().map_err(malformed)?;
            last_stamp.push(raw.checked_sub(1));
        }

        let n_edges = get_len(&mut cur, "edges")?;
        let mut builder = GraphBuilder::new(n_pcs as u32);
        for _ in 0..n_edges {
            let a = cur.get_varint().map_err(malformed)?;
            let b = cur.get_varint().map_err(malformed)?;
            let w = cur.get_varint().map_err(malformed)?;
            let (a, b) = (
                u32::try_from(a).map_err(|_| CoreError::checkpoint("edge endpoint exceeds u32"))?,
                u32::try_from(b).map_err(|_| CoreError::checkpoint("edge endpoint exceeds u32"))?,
            );
            if a as usize >= n_pcs || b as usize >= n_pcs {
                return Err(CoreError::checkpoint(format!(
                    "edge ({a}, {b}) outside the {n_pcs}-branch table"
                )));
            }
            builder
                .try_add_edge(a, b, w)
                .map_err(|e| CoreError::checkpoint(format!("bad checkpoint edge: {e}")))?;
        }
        if !cur.is_empty() {
            return Err(CoreError::checkpoint(format!(
                "{} trailing bytes after analysis state",
                cur.remaining()
            )));
        }
        let counted = ShardDelta {
            builder,
            stats,
            records: records_consumed,
        };
        Ok(StreamingAnalysis {
            trace_name,
            table,
            acc: Accumulator::resume(last_stamp, counted),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bwsa_trace::{Trace, TraceBuilder};

    fn busy_trace(n: u64) -> Trace {
        let mut b = TraceBuilder::new("busy");
        let mut lcg: u64 = 99;
        for i in 0..n {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            b.record(0x4000 + (lcg >> 44) % 17 * 4, (lcg >> 21) & 1 == 1, i + 1);
        }
        b.finish()
    }

    /// Threshold 1 keeps every edge, so an analysis' graph is its raw
    /// graph and equal analyses have equal interleave counts.
    fn keep_all() -> AnalysisPipeline {
        AnalysisPipeline {
            conflict: crate::ConflictConfig::with_threshold(1).unwrap(),
            ..AnalysisPipeline::new()
        }
    }

    fn run_streaming(trace: &Trace, split: usize, pipeline: &AnalysisPipeline) -> Analysis {
        let mut first = StreamingAnalysis::new(&trace.meta().name);
        for r in &trace.records()[..split] {
            first.push(r);
        }
        let blob = first.save();
        let mut resumed = StreamingAnalysis::load(&blob).expect("checkpoint loads");
        assert_eq!(resumed.records_consumed(), split as u64);
        assert_eq!(resumed.trace_name(), trace.meta().name);
        for r in &trace.records()[split..] {
            resumed.push(r);
        }
        resumed.finish(pipeline)
    }

    #[test]
    fn checkpointed_run_matches_in_memory_pipeline_at_any_split() {
        let trace = busy_trace(800);
        let pipeline = AnalysisPipeline::new();
        let expected = pipeline.run_observed(&trace, &bwsa_obs::Obs::noop());
        for split in [0, 1, 399, 400, 799, 800] {
            assert_eq!(
                run_streaming(&trace, split, &pipeline),
                expected,
                "split {split}"
            );
        }
    }

    #[test]
    fn suspended_and_resumed_engine_matches_straight_run() {
        let mut t = TraceBuilder::new("resume");
        let pcs = [0xa, 0xb, 0xa, 0xc, 0xb, 0xa, 0xd, 0xc, 0xa, 0xb, 0xc, 0xd];
        for (i, pc) in pcs.into_iter().enumerate() {
            t.record(pc, i % 2 == 0, (i as u64 + 1) * 3);
        }
        let trace = t.finish();
        let expected = keep_all().run_observed(&trace, &bwsa_obs::Obs::noop());
        assert!(expected.conflict.graph.edge_count() > 0);
        for split in 0..=trace.len() {
            assert_eq!(
                run_streaming(&trace, split, &keep_all()),
                expected,
                "split at {split}"
            );
        }
    }

    #[test]
    fn streaming_push_handles_max_stamp_reexecution() {
        let mut a = StreamingAnalysis::new("max");
        for (pc, t) in [(0xa, u64::MAX), (0xb, u64::MAX), (0xa, u64::MAX)] {
            a.push(&BranchRecord::from_raw(pc, true, t));
        }
        let analysis = a.finish(&keep_all());
        assert_eq!(
            analysis.conflict.raw_edge_count, 0,
            "equal stamps never interleave"
        );
        assert_eq!(analysis.profile.total_dynamic(), 3);
    }

    #[test]
    fn streaming_from_stream_reader_roundtrip() {
        use bwsa_trace::stream::{StreamReader, StreamWriter};
        let mut t = TraceBuilder::new("s");
        for i in 0..500u64 {
            t.record(0x100 + (i % 5) * 4, i % 3 == 0, i + 1);
        }
        let trace = t.finish();
        let mut buf = Vec::new();
        let mut w = StreamWriter::new(&mut buf, "s").unwrap();
        for r in trace.records() {
            w.push(*r).unwrap();
        }
        w.finish(0).unwrap();
        let mut a = StreamingAnalysis::new("s");
        a.consume(StreamReader::new(&buf[..]).unwrap()).unwrap();
        assert_eq!(
            a.finish(&keep_all()),
            keep_all().run_observed(&trace, &bwsa_obs::Obs::noop())
        );
    }

    #[test]
    fn consume_drains_a_fallible_source() {
        let trace = busy_trace(300);
        let mut a = StreamingAnalysis::new("busy");
        a.consume(trace.records().iter().map(|r| Ok(*r))).unwrap();
        assert_eq!(a.records_consumed(), 300);
        assert_eq!(
            a.finish(&AnalysisPipeline::new()),
            AnalysisPipeline::new().run_observed(&trace, &bwsa_obs::Obs::noop())
        );
    }

    #[test]
    fn consume_stops_at_the_first_error() {
        let mut a = StreamingAnalysis::new("x");
        let records = vec![
            Ok(BranchRecord::from_raw(0xa, true, 1)),
            Err(TraceError::format("boom")),
            Ok(BranchRecord::from_raw(0xb, true, 3)),
        ];
        assert!(a.consume(records).is_err());
        assert_eq!(a.records_consumed(), 1, "prefix before the error counts");
    }

    #[test]
    fn empty_analysis_round_trips() {
        let a = StreamingAnalysis::new("empty");
        let b = StreamingAnalysis::load(&a.save()).unwrap();
        assert_eq!(b.records_consumed(), 0);
        assert_eq!(b.static_branch_count(), 0);
        assert_eq!(b.trace_name(), "empty");
    }

    #[test]
    fn corrupt_blobs_are_rejected() {
        let trace = busy_trace(120);
        let mut a = StreamingAnalysis::new("busy");
        for r in trace.records() {
            a.push(r);
        }
        let blob = a.save();
        assert!(StreamingAnalysis::load(&blob).is_ok());
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(StreamingAnalysis::load(&bad).is_err(), "flip at byte {i}");
        }
        for cut in 0..blob.len() {
            assert!(
                StreamingAnalysis::load(&blob[..cut]).is_err(),
                "truncated to {cut}"
            );
        }
    }

    #[test]
    fn sim_and_analysis_checkpoints_reject_each_other() {
        let analysis_blob = StreamingAnalysis::new("t").save();
        let err = bwsa_predictor::SimCheckpoint::from_bytes(&analysis_blob).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");

        let sim_blob = bwsa_predictor::SimCheckpoint {
            predictor: "bimodal/64".into(),
            trace: "t".into(),
            records_consumed: 0,
            mispredictions: 0,
            predictor_state: Vec::new(),
        }
        .to_bytes();
        let err = StreamingAnalysis::load(&sim_blob).unwrap_err();
        assert!(err.to_string().contains("kind"), "{err}");
    }

    #[test]
    fn save_is_deterministic() {
        let trace = busy_trace(250);
        let mut a = StreamingAnalysis::new("busy");
        let mut b = StreamingAnalysis::new("busy");
        for r in trace.records() {
            a.push(r);
            b.push(r);
        }
        assert_eq!(a.save(), b.save(), "same state must encode identically");
        let reloaded = StreamingAnalysis::load(&a.save()).unwrap();
        assert_eq!(reloaded.save(), a.save(), "load/save round-trips bytes");
    }
}
